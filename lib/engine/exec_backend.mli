(** The execution-backend API.

    A backend is how a session turns a query AST into a result set.  Two
    implementations exist: the row-at-a-time tree-walking interpreter
    ({!Executor}), which is the reference semantics, and the
    closure-compiling batched executor ({!Compile}).  They are
    observably identical — same results, same errors, same coverage and
    operator events (modulo the compiled backend's non-zero batch
    counts) — which is itself checked differentially by tests and the
    campaign gate.

    {!Compiled} is the default everywhere: sessions, runner configs,
    query synthesis, rectification, the constant-optimization sweep and
    the CLI.  The interpreter stays as the reference: ground-truth
    replay of findings runs on it, and the tests compare the compiled
    backend against it.  Select a backend per {!Session}
    ([Session.create ~backend]) or per campaign ([--backend] on the
    CLI). *)

type kind = Interpreted | Compiled

val all : kind list

(** ["interpreted"] / ["compiled"]: the CLI and report spelling. *)
val name : kind -> string

val description : kind -> string

(** Parse a CLI spelling (case-insensitive; ["interp"]/["compile"]
    abbreviations accepted). *)
val of_name : string -> (kind, string) result

module type S = sig
  val name : string

  val run_query :
    Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result
end

val of_kind : kind -> (module S)

(** [run_query kind] is [let (module B) = of_kind kind in B.run_query]. *)
val run_query :
  kind -> Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result

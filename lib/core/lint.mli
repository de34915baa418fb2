(** The static-analysis bridge.

    Connects [Analysis] to the PQS loop: typechecks containment queries
    against the live session's catalog and lints the planner's access
    paths.  The generators are well-typed by construction, so any error
    diagnostic is an analyzer or generator defect; {!sweep} checks a seed
    corpus for them ([make lint], [sqlancer lint]).  {!scan_sites} is the
    scan-site walk the plan-space oracle ([Plan_diff]) shares. *)

open Sqlval

val table_of_info : Schema_info.table_info -> Analysis.Typecheck.table

val env_of_session : Engine.Session.t -> Analysis.env
(** Analysis environment over the session's current tables and views
    (view columns are untyped with binary collation). *)

val env_of_pivot :
  Dialect.t -> (Schema_info.table_info * Value.t array) list -> Analysis.env
(** Environment seeded from a pivot row: each column's nullability is the
    abstraction of its pivot value, for cross-checking the analysis
    against [Interp]'s concrete evaluation. *)

val check_stmt : Engine.Session.t -> Sqlast.Ast.stmt -> Analysis.Diagnostic.t list
(** Typecheck the query inside a [Select_stmt] / [Explain]. *)

(** A single-base-table scan site: the shapes the planner handles. *)
type site = {
  site_alias : string;
      (** effective alias — the key under which the executor applies a
          forced access path *)
  site_table : string;
  site_schema : Storage.Schema.table;
  site_where : Sqlast.Ast.expr option;
  site_distinct : bool;
      (** the owning select's DISTINCT (distinct-sensitive paths see it) *)
}

val scan_sites : Engine.Session.t -> Sqlast.Ast.query -> site list
(** Every scan site of the query, including derived tables and compound
    arms. *)

val lint_plans : Engine.Session.t -> Sqlast.Ast.query -> Analysis.Diagnostic.t list
(** Choose and lint the access path for every single-table scan site in
    the query (including derived tables and compound arms). *)

type sweep_result = {
  sw_seeds : int;
  sw_queries : int;  (** containment statements analyzed *)
  sw_plans : int;  (** single-table scan sites linted *)
  sw_diags : (int * Analysis.Diagnostic.t) list;
      (** every type/nullability/plan diagnostic, tagged with its seed *)
  sw_simplify_diags : (int * Analysis.Diagnostic.t) list;
      (** simplification/interval findings (always-true, dead-case-branch,
          unsat-predicate, out-of-interval) over the generated WHERE
          clauses.  These are advisory warnings about the *queries* — a
          random predicate may legitimately be unsatisfiable — so they are
          counted separately and never fail the sweep. *)
}

val sweep :
  ?queries_per_seed:int ->
  seed_lo:int ->
  seed_hi:int ->
  Dialect.t ->
  sweep_result
(** Generate a lean database and [queries_per_seed] containment queries
    per seed in [seed_lo..seed_hi] (inclusive) on a clean engine, and
    analyze all of them.  The generators are well-typed by construction,
    so any diagnostic is an analyzer (or generator) defect — [make lint]
    and the acceptance property test fail on a non-empty [sw_diags].
    [sw_simplify_diags] is informational and never fails the sweep. *)

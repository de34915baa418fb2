(** The compiled execution backend.

    Translates a planned query into OCaml closures over a mutable
    current-row environment (column references become array-slot reads
    resolved at compile time) and drives the operator pipeline — scan,
    filter, project, distinct, sort, limit — over fixed-size row blocks
    instead of walking the expression AST once per row.

    Value-level semantics are not duplicated: closures call the operator
    bodies exported by {!Eval}, so every dialect quirk and injected bug
    behaves identically under both backends, and the two produce the
    same result multisets, the same errors, the same coverage points in
    the same order, and the same flight-recorder operator stream (the
    compiled backend additionally reports non-zero [batches] counts).

    Every query shape compiles: joins (nested loops with the ON
    predicate compiled once against the combined binding layout),
    comma-FROM cross products (one fused product-and-filter loop),
    derived tables, view expansion, and GROUP BY / aggregates / HAVING
    (the grouping, aggregate folds and HAVING logic are
    {!Executor.group_rows} and {!Executor.aggregate}, shared with the
    interpreter).  The interpreter is never called; it remains the
    reference the tests compare against. *)

(** Rows per operator block. *)
val block_size : int

val run_query :
  Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result

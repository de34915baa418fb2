(** Query execution: the SELECT pipeline.

    Single-table scans go through {!Planner} and always re-apply the WHERE
    filter to the candidate rows; joins are nested loops over the FROM
    cross product; views expand inline; GROUP BY/HAVING, DISTINCT, ORDER
    BY, LIMIT/OFFSET and the compound operators (UNION/INTERSECT/EXCEPT —
    INTERSECT being what PQS's containment check uses) complete the
    pipeline. *)

open Sqlval

type profile
(** Pre-resolved handles for the per-query engine counters (rows scanned,
    index rows, B-tree visits).  Resolved once per session — these fire
    several times per statement, so they must not pay a registry lookup
    each time.  From {!Telemetry.noop} every handle is inert. *)

val make_profile : Telemetry.t -> profile

(** A forced access path for one scan site, keyed by the lowercase
    effective alias, the lowercase base-table name and the scan's WHERE
    clause.  A path is only sound at a scan with the same schema and the
    same residual filter, so only an exact key match applies it. *)
type forced_site = {
  fs_alias : string;
  fs_table : string;
  fs_where : Sqlast.Ast.expr option;
  fs_path : Planner.path;
}

type forced = {
  f_sites : forced_site list;
  f_swap_join : bool;
      (** iterate two-table inner/cross joins (and two-item comma FROMs)
          right-major; binding order and projection are unchanged, only
          the scan order moves.  LEFT joins are never swapped. *)
}

(** No overrides: behaves exactly like [force = None]. *)
val no_force : forced

val show_forced : forced -> string

type ctx = {
  dialect : Dialect.t;
  bugs : Bug.set;
  options : Options.t;
  coverage : Coverage.t option;
  catalog : Storage.Catalog.t;
  telemetry : Telemetry.t;  (** {!Telemetry.noop} unless profiling *)
  profile : profile;
  recorder : Trace.t;
      (** flight recorder for plan/operator events; {!Trace.noop} unless a
          round is being traced *)
  force : forced option;
      (** plan-diff oracle: override the planner at matching scan sites;
          forced paths are annotated ["(forced)"] in EXPLAIN and traces *)
}

(** The forced path for a scan site, when one matches. *)
val forced_path_for :
  ctx ->
  alias:string ->
  table:string ->
  where:Sqlast.Ast.expr option ->
  Planner.path option

(** env whose resolver sees the table's columns with NULL values: what the
    planner needs (collation/affinity metadata, not row values). *)
val planner_env : ctx -> Storage.Schema.table -> alias:string -> Eval.env

type result_set = { rs_columns : string list; rs_rows : Value.t array list }

val pp_result_set : Format.formatter -> result_set -> unit

(** Does the result set contain this exact row (value equality)? *)
val result_contains : result_set -> Value.t list -> bool

val eval_env : ctx -> Eval.env

(** Canonical multiset key of a result row: the row identity the engine
    uses for DISTINCT, GROUP BY and the compound operators.  Numeric
    values that compare equal share a key (exact-integer reals and
    booleans key as integers, e.g. [1], [1.0] and [TRUE]; other reals
    key by [string_of_float]); every other value keys by its kind and
    contents, column by column. *)
type row_key

val row_key : Value.t array -> row_key
val equal_row_key : row_key -> row_key -> bool

(** A total order consistent with {!equal_row_key}. *)
val compare_row_key : row_key -> row_key -> int

module Key_tbl : Hashtbl.S with type key = row_key

val run_query : ctx -> Sqlast.Ast.query -> (result_set, Errors.t) result

(** Rows of one table including postgres-inherited children (projected onto
    the parent's columns), in scan order.  Shared with DML and maintenance. *)
val scan_table :
  ctx -> Storage.Catalog.table_state -> (Storage.Row.t * Storage.Schema.table) list

(** {1 Shared with the compiled backend}

    The pieces of the interpreted pipeline that {!Compile} reuses so the
    two execution backends share one definition of name resolution,
    scan-site bug injection, access-path choice and flight-recorder
    annotation. *)

(** One FROM-clause row source in scope: lowercase alias, column
    metadata, current row values. *)
type binding = {
  b_alias : string;
  b_columns : (string * Datatype.t * Collation.t) array;
  b_values : Value.t array;
}

val binding_of_table :
  Storage.Schema.table -> alias:string -> Value.t array -> binding

(** The error for a qualifier ([t.col], [t.*]) that names no binding. *)
val no_such_binding : string -> Errors.t

(** Column-reference resolution over in-scope bindings: qualified
    references must match an alias; unqualified references must match
    exactly one column across all bindings. *)
val resolve_in :
  binding list ->
  table:string option ->
  column:string ->
  (Eval.resolved, Errors.t) result

(** {!eval_env} with {!resolve_in} over the given bindings. *)
val env_for : ctx -> binding list -> Eval.env

(** Is the plan-diff join-order swap forced for this query?  (Applies to
    two-table inner/cross joins and two-item comma FROMs; see {!forced}.) *)
val swap_join_forced : ctx -> bool

(** Query-level facts the scan-site bug injections consult. *)
type from_ctx = {
  in_join : bool;
  cond_has_cast : bool;
  cond_has_ifnull : bool;
  distinct : bool;
}

val has_cast : Sqlast.Ast.expr -> bool
val has_ifnull : Sqlast.Ast.expr -> bool

(** The implicit unique index over the table's primary-key columns among
    its [indexes], if any (for WITHOUT ROWID tables, the table storage). *)
val pk_index :
  Storage.Schema.table -> Storage.Index.t list -> Storage.Index.t option

(** Scan one base table under [where]: injected planner/index bug gates,
    access-path choice (honouring {!ctx.force}), rowid fetch, and the
    SCAN flight-recorder annotation.  Returns the rows (paired with the
    schema that typed each row) and whether a skip scan was used.
    [block_size] makes the SCAN operator event report batch counts (the
    compiled backend passes its block size; the interpreter omits it and
    reports [batches = 0]). *)
val scan_rows :
  ctx ->
  from_ctx ->
  where:Sqlast.Ast.expr option ->
  table:string ->
  alias:string ->
  ?block_size:int ->
  Storage.Catalog.table_state ->
  ((Storage.Row.t * Storage.Schema.table) list * bool, Errors.t) result

(** Output column names of a SELECT item list against a sample tuple
    (empty when the scan produced no rows, which is observable: [*]
    contributes no columns and [t.*] fails). *)
val output_columns :
  ctx -> binding list -> Sqlast.Ast.select_item list ->
  (string list, Errors.t) result

(** Whether the SELECT uses aggregation (GROUP BY, aggregate items, or an
    aggregate HAVING). *)
val select_has_agg : Sqlast.Ast.select -> bool

(** Expand a view referenced in FROM: run its query with [run], apply
    the injected pushdown defect (which consults the referencing scan's
    [where]), and record the VIEW operator event ([block_size] as in
    {!scan_rows}).  Returns the view's columns (untyped, binary-collated)
    and rows. *)
val expand_view :
  ctx ->
  run:(ctx -> Sqlast.Ast.query -> (result_set, Errors.t) result) ->
  where:Sqlast.Ast.expr option ->
  alias:string ->
  ?block_size:int ->
  Storage.Catalog.view ->
  ((string * Datatype.t * Collation.t) array * Value.t array list, Errors.t)
  result

(** Partition a SELECT's filtered tuples into groups: first-seen group
    order, input order within a group, keys compared under {!row_key}.
    [key_of exprs] prepares the per-tuple evaluator of the grouping
    expressions (which the injected postgres inheritance defect may
    narrow).  Without GROUP BY everything is one group, even when
    empty. *)
val group_rows :
  ctx ->
  Sqlast.Ast.select ->
  key_of:
    (Sqlast.Ast.expr list -> 'a -> (Value.t array, Errors.t) result) ->
  'a list ->
  ('a list list, Errors.t) result

(** The aggregation operator over [groups]: per group, HAVING, then the
    select items and ORDER BY keys with every aggregate replaced by its
    value over the group.  Returns the kept groups' rows with their sort
    keys.  The pipeline supplies evaluation: [values g a] evaluates [a]
    once per tuple of [g], in order; [eval g e] and [project g items]
    evaluate an expression and an item list against the group's
    representative (its first tuple, or no tuple for an empty group). *)
val aggregate :
  ctx ->
  Sqlast.Ast.select ->
  'g list list ->
  values:('g list -> Sqlast.Ast.expr -> (Value.t list, Errors.t) result) ->
  eval:('g list -> Sqlast.Ast.expr -> (Value.t, Errors.t) result) ->
  project:
    ('g list -> Sqlast.Ast.select_item list -> (Value.t array, Errors.t) result) ->
  ((Value.t array * Value.t list) list, Errors.t) result

(** First-occurrence deduplication under {!row_key}. *)
val dedup_rows : Value.t array list -> Value.t array list

(** First-occurrence deduplication of any items under a row key. *)
val dedup_by : key:('a -> row_key) -> 'a list -> 'a list

val tracing : ctx -> bool

(** A [Telemetry.Clock] reading when tracing, else [0]. *)
val op_clock : ctx -> int

(** Record an operator event on the flight recorder (no-op unless
    tracing).  [batches] is 0 for row-at-a-time operators. *)
val op_event :
  ctx ->
  op:string ->
  ?detail:string ->
  rows_in:int ->
  rows_out:int ->
  ?batches:int ->
  ?btree:int * int ->
  t0:int ->
  unit ->
  unit

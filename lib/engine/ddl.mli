(** Data definition: CREATE/DROP/ALTER TABLE, CREATE/DROP INDEX, views.

    Dialect rules enforced here mirror the features the paper leans on:
    sqlite's untyped columns and WITHOUT ROWID tables, mysql's storage
    engines and unsigned types, postgres's SERIAL, strict typing and table
    inheritance. *)

val create_table :
  Executor.ctx -> Sqlast.Ast.create_table -> (unit, Errors.t) result

val drop_table :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

val alter_table :
  Executor.ctx -> string -> Sqlast.Ast.alter_action -> (unit, Errors.t) result

val create_index :
  Executor.ctx -> Sqlast.Ast.create_index -> (unit, Errors.t) result

val drop_index :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

(** Validates the view by running its query once with [run] (the
    session's execution backend) before adding it to the catalog. *)
val create_view :
  run:(Executor.ctx -> Sqlast.Ast.query -> (Executor.result_set, Errors.t) result) ->
  Executor.ctx ->
  string ->
  Sqlast.Ast.query ->
  (unit, Errors.t) result

val drop_view :
  Executor.ctx -> if_exists:bool -> string -> (unit, Errors.t) result

(** Evaluation environment resolving columns against one row of a table. *)
val row_env :
  Executor.ctx -> Storage.Schema.table -> Storage.Row.t -> Eval.env

(** Build (or rebuild) the entries of one index from its table's rows;
    shared with REINDEX/VACUUM.  Reports a UNIQUE violation when the
    rebuilt keys conflict. *)
val build_index_entries :
  Executor.ctx ->
  Storage.Catalog.table_state ->
  Storage.Index.t ->
  (unit, Errors.t) result

(** Compute the key tuple of [index] for one row, evaluating expression
    index columns with the engine evaluator; [Error] surfaces evaluation
    failures (e.g. overflow in an expression index). *)
val index_key_for_row :
  Executor.ctx ->
  Storage.Catalog.table_state ->
  Storage.Index.t ->
  Storage.Row.t ->
  (Sqlval.Value.t array, Errors.t) result

(** Does the row satisfy the index's partial predicate (trivially true for
    total indexes)? *)
val row_in_partial :
  Executor.ctx ->
  Storage.Catalog.table_state ->
  Storage.Index.t ->
  Storage.Row.t ->
  (bool, Errors.t) result

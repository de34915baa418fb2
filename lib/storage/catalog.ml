(* Database catalog: tables (schema + heap), indexes, views and extended
   statistics, with case-insensitive name lookup and creation-ordered
   introspection (the analogue of sqlite_master / information_schema, which
   the paper's tool queries for state, Section 3.4).

   The [corruption] field models on-disk corruption: once set, statements
   that touch the database report the dialect's "malformed database" error —
   the strongest signal of the paper's error oracle (Listing 10). *)

type table_state = { schema : Schema.table; heap : Heap.t }

type view = { view_name : string; view_query : Sqlast.Ast.query }

type statistics = {
  stat_name : string;
  stat_table : string;
  stat_columns : string list;
}

type t = {
  mutable tables : (string * table_state) list; (* key: lowercase name *)
  mutable indexes : (string * Index.t) list;
  mutable views : (string * view) list;
  mutable stats : (string * statistics) list;
  mutable corruption : string option;
  mutable analyzed : bool; (* ANALYZE ran: planner may use statistics *)
}

let create () =
  {
    tables = [];
    indexes = [];
    views = [];
    stats = [];
    corruption = None;
    analyzed = false;
  }

(* Entries stay keyed by their lowercase name (so equal-under-case names
   collide on insert); lookups compare keys with [Schema.name_equal] and
   never fold the probe. *)
let norm = String.lowercase_ascii
let same = Schema.name_equal

let rec find_key name = function
  | [] -> None
  | (k, v) :: rest -> if same k name then Some v else find_key name rest

let mem_key name l = find_key name l <> None

(* drops the first matching entry only, like [List.remove_assoc] *)
let rec remove_key name = function
  | [] -> []
  | ((k, _) as e) :: rest ->
      if same k name then rest else e :: remove_key name rest

(* ---- tables ---- *)

let find_table t name = find_key name t.tables
let table_exists t name = find_table t name <> None

let add_table t (schema : Schema.table) =
  let state = { schema; heap = Heap.create () } in
  t.tables <- t.tables @ [ (norm schema.Schema.table_name, state) ];
  state

let drop_table t name =
  let existed = mem_key name t.tables in
  t.tables <- remove_key name t.tables;
  t.indexes <-
    List.filter (fun (_, ix) -> not (same ix.Index.on_table name)) t.indexes;
  existed

let table_names t = List.map (fun (_, ts) -> ts.schema.Schema.table_name) t.tables

let iter_tables f t = List.iter (fun (_, ts) -> f ts) t.tables

(* postgres table inheritance: direct children of a table *)
let children_of t name =
  List.filter_map
    (fun (_, ts) ->
      match ts.schema.Schema.inherits with
      | Some parent when same parent name ->
          Some ts.schema.Schema.table_name
      | _ -> None)
    t.tables

(* ---- indexes ---- *)

let find_index t name = find_key name t.indexes
let index_exists t name = find_index t name <> None

let add_index t (ix : Index.t) =
  t.indexes <- t.indexes @ [ (norm ix.Index.index_name, ix) ]

let drop_index t name =
  let existed = mem_key name t.indexes in
  t.indexes <- remove_key name t.indexes;
  existed

let indexes_on t table_name =
  List.filter_map
    (fun (_, ix) ->
      if same ix.Index.on_table table_name then Some ix else None)
    t.indexes

let index_names t = List.map (fun (_, ix) -> ix.Index.index_name) t.indexes

(* ---- views ---- *)

let find_view t name = find_key name t.views
let view_exists t name = find_view t name <> None

let add_view t (v : view) = t.views <- t.views @ [ (norm v.view_name, v) ]

let drop_view t name =
  let existed = mem_key name t.views in
  t.views <- remove_key name t.views;
  existed

let view_names t = List.map (fun (_, v) -> v.view_name) t.views

(* ---- extended statistics (postgres CREATE STATISTICS) ---- *)

let add_statistics t (s : statistics) =
  t.stats <- t.stats @ [ (norm s.stat_name, s) ]

let statistics_exists t name = mem_key name t.stats

let statistics_on t table =
  List.filter_map
    (fun (_, s) -> if same s.stat_table table then Some s else None)
    t.stats

(* ---- corruption ---- *)

let corrupt t msg = if t.corruption = None then t.corruption <- Some msg
let corruption t = t.corruption
let clear_corruption t = t.corruption <- None

(* ---- snapshots (transactions) ---- *)

type snapshot = {
  snap_tables : (string * table_state) list;
  snap_indexes : (string * Index.t) list;
  snap_views : (string * view) list;
  snap_stats : (string * statistics) list;
  snap_corruption : string option;
  snap_analyzed : bool;
}

let snapshot t =
  {
    snap_tables =
      List.map
        (fun (k, ts) ->
          ( k,
            {
              schema = Schema.copy_table ts.schema;
              heap = Heap.deep_copy ts.heap;
            } ))
        t.tables;
    snap_indexes = List.map (fun (k, ix) -> (k, Index.copy ix)) t.indexes;
    snap_views = t.views;
    snap_stats = t.stats;
    snap_corruption = t.corruption;
    snap_analyzed = t.analyzed;
  }

let restore t snap =
  t.tables <- snap.snap_tables;
  t.indexes <- snap.snap_indexes;
  t.views <- snap.snap_views;
  t.stats <- snap.snap_stats;
  t.corruption <- snap.snap_corruption;
  t.analyzed <- snap.snap_analyzed

open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

(* handles for the per-query profiling counters, resolved once per
   session: these fire several times per statement, so the registry
   lookup (a string-keyed hash per inc) would dominate the telemetry
   overhead budget if paid on every bump *)
type profile = {
  p_btree_nodes : Telemetry.counter_handle;
  p_btree_entries : Telemetry.counter_handle;
  p_index_rows : Telemetry.counter_handle;
  p_heap_rows : Telemetry.counter_handle;
  p_scan_rows : Telemetry.counter_handle;
  p_plan : Telemetry.counter_handle array; (* indexed by [plan_index] *)
}

(* the planner's access paths form a closed set, so the per-path series of
   minidb_plan_choices_total can be pre-resolved like the rest *)
let plan_index = function
  | Planner.Full_scan -> 0
  | Planner.Index_eq _ -> 1
  | Planner.Index_range _ -> 2
  | Planner.Index_like_prefix _ -> 3
  | Planner.Partial_index_scan _ -> 4
  | Planner.Skip_scan _ -> 5
  | Planner.Or_union _ -> 6

let plan_labels =
  [|
    "full_scan"; "index_eq"; "index_range"; "index_like_prefix";
    "partial_index"; "skip_scan"; "or_union";
  |]

let make_profile tele =
  {
    p_btree_nodes = Telemetry.counter_handle tele "minidb_btree_node_visits_total";
    p_btree_entries =
      Telemetry.counter_handle tele "minidb_btree_entries_scanned_total";
    p_index_rows = Telemetry.counter_handle tele "minidb_index_rows_total";
    p_heap_rows = Telemetry.counter_handle tele "minidb_heap_rows_scanned_total";
    p_scan_rows = Telemetry.counter_handle tele "minidb_rows_scanned_total";
    p_plan =
      Array.map
        (fun label ->
          Telemetry.counter_handle tele
            ~labels:[ ("path", label) ]
            "minidb_plan_choices_total")
        plan_labels;
  }

(* A forced access path for one scan site.  Sites are keyed by the
   lowercase effective alias, the lowercase base-table name AND the scan's
   WHERE clause: a path derived for one (schema, where) pair is only sound
   at a scan with the same schema and the same residual filter, so an
   identical key is both necessary and sufficient (a view-internal scan of
   the same table has a different WHERE and is never matched). *)
type forced_site = {
  fs_alias : string;
  fs_table : string;
  fs_where : A.expr option;
  fs_path : Planner.path;
}

type forced = {
  f_sites : forced_site list;
  f_swap_join : bool;
      (* iterate two-table inner/cross joins right-major; binding order
         (and therefore projection) is unchanged, only scan order moves *)
}

let no_force = { f_sites = []; f_swap_join = false }

let show_forced f =
  let sites =
    List.map (fun s -> s.fs_alias ^ "=" ^ Planner.show_path s.fs_path) f.f_sites
  in
  let sites = if f.f_swap_join then sites @ [ "swap-join" ] else sites in
  String.concat ";" sites

type ctx = {
  dialect : Dialect.t;
  bugs : Bug.set;
  options : Options.t;
  coverage : Coverage.t option;
  catalog : Storage.Catalog.t;
  telemetry : Telemetry.t;
  profile : profile;
  recorder : Trace.t;
      (* flight recorder: planner decisions and per-operator annotations
         stream into it when enabled (runner rounds, EXPLAIN ANALYZE) *)
  force : forced option;
      (* plan-diff oracle: override the planner at matching scan sites *)
}

let forced_path_for ctx ~alias ~table ~where =
  match ctx.force with
  | None -> None
  | Some f ->
      let alias = String.lowercase_ascii alias
      and table = String.lowercase_ascii table in
      List.find_map
        (fun s ->
          if
            String.equal s.fs_alias alias
            && String.equal s.fs_table table
            && Option.equal A.equal_expr s.fs_where where
          then Some s.fs_path
          else None)
        f.f_sites

let swap_join_forced ctx =
  match ctx.force with Some f -> f.f_swap_join | None -> false

(* ------------------------------------------------------------------ *)
(* Flight-recorder operator annotations.  All call sites are guarded on
   [tracing ctx] so the disabled path costs one branch and never calls
   the clock or counts rows. *)

let tracing ctx = Trace.enabled ctx.recorder
let op_clock ctx = if tracing ctx then Telemetry.Clock.now_ns_int () else 0

let op_event ctx ~op ?(detail = "") ~rows_in ~rows_out ?(batches = 0)
    ?(btree = (0, 0)) ~t0 () =
  if tracing ctx then begin
    let now = Telemetry.Clock.now_ns_int () in
    Trace.record_at ctx.recorder ~now_ns:now
      (Trace.Event.Op
         {
           op;
           detail;
           rows_in;
           rows_out;
           batches;
           btree_nodes = fst btree;
           btree_entries = snd btree;
           dur_ns = now - t0;
         })
  end

(* indexes a path reads, for charging B-tree visits to the scan operator *)
let rec path_indexes = function
  | Planner.Full_scan -> []
  | Planner.Index_eq { index; _ }
  | Planner.Index_range { index; _ }
  | Planner.Index_like_prefix { index; _ }
  | Planner.Partial_index_scan { index }
  | Planner.Skip_scan { index } ->
      [ index ]
  | Planner.Or_union paths -> List.concat_map path_indexes paths

let path_btree_profile path =
  List.fold_left
    (fun (n, e) ix ->
      let n', e' = Storage.Index.tree_profile ix in
      (n + n', e + e'))
    (0, 0) (path_indexes path)

type result_set = { rs_columns : string list; rs_rows : Value.t array list }

let pp_result_set fmt rs =
  Format.fprintf fmt "%s@." (String.concat "|" rs.rs_columns);
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (String.concat "|" (List.map Value.to_display (Array.to_list row))))
    rs.rs_rows

let result_contains rs row =
  let row = Array.of_list row in
  List.exists
    (fun r ->
      Array.length r = Array.length row && Array.for_all2 Value.equal r row)
    rs.rs_rows

(* ------------------------------------------------------------------ *)
(* Row identity                                                        *)

(* One value of a row key: numeric values that compare equal share a key
   (exact-integer reals and booleans key as integers; other reals key by
   their printed form), text and blobs stay apart. *)
type key_value =
  | K_null
  | K_int of int64
  | K_real of string
  | K_text of string
  | K_blob of string

type row_key = key_value array

let key_value = function
  | Value.Null -> K_null
  | Value.Int i -> K_int i
  | Value.Bool b -> K_int (if b then 1L else 0L)
  | Value.Real r ->
      if Numeric.real_is_exact_int r then K_int (Int64.of_float r)
      else K_real (string_of_float r)
  | Value.Text s -> K_text s
  | Value.Blob s -> K_blob s

let row_key (row : Value.t array) : row_key = Array.map key_value row

let equal_key_value a b =
  match (a, b) with
  | K_null, K_null -> true
  | K_int x, K_int y -> Int64.equal x y
  | K_real x, K_real y | K_text x, K_text y | K_blob x, K_blob y ->
      String.equal x y
  | (K_null | K_int _ | K_real _ | K_text _ | K_blob _), _ -> false

let equal_row_key (a : row_key) (b : row_key) =
  Array.length a = Array.length b && Array.for_all2 equal_key_value a b

let compare_row_key (a : row_key) (b : row_key) = Stdlib.compare a b

module Key_tbl = Hashtbl.Make (struct
  type t = row_key

  let equal = equal_row_key

  (* every column contributes, unlike the generic hash's bounded walk *)
  let hash (k : t) =
    Array.fold_left (fun h v -> (h * 31) + Hashtbl.hash v) 0 k land max_int
end)

let dedup_by ~key rows =
  let seen = Key_tbl.create 16 in
  List.filter
    (fun row ->
      let k = key row in
      if Key_tbl.mem seen k then false
      else begin
        Key_tbl.replace seen k ();
        true
      end)
    rows

let dedup_rows rows = dedup_by ~key:row_key rows

let cov ctx point =
  match ctx.coverage with None -> () | Some c -> Coverage.hit c point

let bug ctx b = Bug.on ctx.bugs b

(* Run [f] and charge the B-tree read work it caused on [index] (scraped
   as deltas of the tree's cumulative profile) to the engine counters. *)
let profile_index ctx index f =
  if not (Telemetry.enabled ctx.telemetry) then f ()
  else begin
    let n0, e0 = Storage.Index.tree_profile index in
    let r = f () in
    let n1, e1 = Storage.Index.tree_profile index in
    Telemetry.inc_handle ~by:(n1 - n0) ctx.profile.p_btree_nodes;
    Telemetry.inc_handle ~by:(e1 - e0) ctx.profile.p_btree_entries;
    r
  end

let count_index_rows ctx rowids =
  if Telemetry.enabled ctx.telemetry then
    Telemetry.inc_handle ~by:(List.length rowids) ctx.profile.p_index_rows;
  rowids

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)

type binding = {
  b_alias : string; (* lowercase alias (or table name) *)
  b_columns : (string * Datatype.t * Collation.t) array;
  b_values : Value.t array;
}

let binding_of_table (schema : Storage.Schema.table) ~alias values =
  {
    b_alias = String.lowercase_ascii alias;
    b_columns =
      Array.map
        (fun (c : Storage.Schema.column) ->
          (String.lowercase_ascii c.Storage.Schema.name, c.ty, c.collation))
        schema.Storage.Schema.columns;
    b_values = values;
  }

(* a qualifier that names no binding; bindings hold lowercase aliases and
   the message names the qualifier the same way *)
let no_such_binding t =
  Errors.makef Errors.No_such_table "no such table: %s" (String.lowercase_ascii t)

let resolve_in (bindings : binding list) ~table ~column :
    (Eval.resolved, Errors.t) result =
  let lookup b =
    let rec go i =
      if i >= Array.length b.b_columns then None
      else
        let name, dt, coll = b.b_columns.(i) in
        if Storage.Schema.name_equal name column then
          Some { Eval.value = b.b_values.(i); datatype = dt; collation = coll }
        else go (i + 1)
    in
    go 0
  in
  match table with
  | Some t -> (
      match
        List.find_opt (fun b -> Storage.Schema.name_equal b.b_alias t) bindings
      with
      | None -> Error (no_such_binding t)
      | Some b -> (
          match lookup b with
          | Some r -> Ok r
          | None ->
              Error
                (Errors.makef Errors.No_such_column "no such column: %s.%s"
                   (String.lowercase_ascii t) column)))
  | None -> (
      let hits = List.filter_map lookup bindings in
      match hits with
      | [ r ] -> Ok r
      | [] ->
          Error (Errors.makef Errors.No_such_column "no such column: %s" column)
      | _ :: _ ->
          Error
            (Errors.makef Errors.Ambiguous_column "ambiguous column name: %s"
               column))

let eval_env ctx : Eval.env =
  {
    Eval.dialect = ctx.dialect;
    bugs = ctx.bugs;
    case_sensitive_like = Options.case_sensitive_like ctx.options;
    coverage = ctx.coverage;
    resolve = (Eval.const_env ctx.dialect).Eval.resolve;
  }

let env_for ctx bindings : Eval.env =
  { (eval_env ctx) with Eval.resolve = resolve_in bindings }

(* env whose resolver sees the table's columns with NULL values: the
   planner needs collation/affinity metadata, not row values *)
let planner_env ctx (schema : Storage.Schema.table) ~alias =
  let null_binding =
    binding_of_table schema ~alias
      (Array.map
         (fun (_ : Storage.Schema.column) -> Value.Null)
         schema.Storage.Schema.columns)
  in
  env_for ctx [ null_binding ]

(* ------------------------------------------------------------------ *)
(* Table scans                                                         *)

(* Project a child row onto the parent's columns by column name. *)
let project_child (parent : Storage.Schema.table) (child : Storage.Schema.table)
    (row : Storage.Row.t) : Storage.Row.t =
  let values =
    Array.map
      (fun (pc : Storage.Schema.column) ->
        match Storage.Schema.find_column child pc.Storage.Schema.name with
        | Some (i, _) -> Storage.Row.get row i
        | None -> Value.Null)
      parent.Storage.Schema.columns
  in
  Storage.Row.make ~rowid:row.Storage.Row.rowid values

let rec scan_table ctx (ts : Storage.Catalog.table_state) :
    (Storage.Row.t * Storage.Schema.table) list =
  let own =
    List.map (fun r -> (r, ts.Storage.Catalog.schema)) (Storage.Heap.to_list ts.Storage.Catalog.heap)
  in
  if Telemetry.enabled ctx.telemetry then
    Telemetry.inc_handle ~by:(List.length own) ctx.profile.p_heap_rows;
  let parent = ts.Storage.Catalog.schema in
  let children =
    Storage.Catalog.children_of ctx.catalog parent.Storage.Schema.table_name
  in
  let child_rows =
    List.concat_map
      (fun child_name ->
        match Storage.Catalog.find_table ctx.catalog child_name with
        | None -> []
        | Some child_ts ->
            scan_table ctx child_ts
            |> List.map (fun (row, sch) ->
                   (project_child parent sch row, parent)))
      children
  in
  own @ child_rows

(* The implicit unique index over the primary-key columns, if any: for
   WITHOUT ROWID tables it *is* the table storage, so full scans read
   through it (which is what makes the Listing 4 defect observable). *)
let pk_index (schema : Storage.Schema.table) indexes =
  let rec over_pk definition pk =
    match (definition, pk) with
    | [], [] -> true
    | { A.ic_expr = A.Col { column; _ }; _ } :: definition, p :: pk ->
        Storage.Schema.name_equal column p && over_pk definition pk
    | _ -> false
  in
  match schema.Storage.Schema.primary_key with
  | [] -> None
  | pk ->
      List.find_opt
        (fun ix ->
          ix.Storage.Index.unique && over_pk ix.Storage.Index.definition pk)
        indexes

(* Candidate rowids for a single-table WHERE via the planner; [None] means
   scan everything. *)
let rec path_rowids ?(distinct = false) ctx (path : Planner.path) :
    int64 list option =
  ignore distinct;
  match path with
  | Planner.Full_scan -> None
  | Planner.Index_eq { index; key } ->
      Some
        (count_index_rows ctx
           (profile_index ctx index (fun () ->
                Storage.Index.find_rowids index key)))
  | Planner.Index_range { index; lo; hi } ->
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            let wrap = Option.map (fun (v, incl) -> ([| v |], incl)) in
            Storage.Index.iter_range ?lo:(wrap lo) ?hi:(wrap hi)
              (fun _ rowid -> acc := rowid :: !acc)
              index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Index_like_prefix { index; prefix } ->
      (* LIKE also matches numbers and blobs through their text form, so
         besides the prefix's text range the scan visits every non-text
         key (those below [Text ""] and from [Blob ""] up), in index
         order; the WHERE filter decides on each fetched row *)
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            let add _ rowid = acc := rowid :: !acc in
            Storage.Index.iter_range ~hi:([| Value.Text "" |], false) add index;
            Storage.Index.iter_range
              ~lo:([| Value.Text prefix |], true)
              ~hi:([| Value.Text (prefix ^ "\255") |], true)
              add index;
            Storage.Index.iter_range ~lo:([| Value.Blob "" |], true) add index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Partial_index_scan { index } ->
      let rowids =
        profile_index ctx index (fun () ->
            let acc = ref [] in
            Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) index;
            List.rev !acc)
      in
      Some (count_index_rows ctx rowids)
  | Planner.Skip_scan { index } ->
      Some
        (count_index_rows ctx
           (profile_index ctx index (fun () ->
                skip_scan_rowids ~distinct ctx index)))
  | Planner.Or_union paths ->
      let first_non_empty = ref false in
      let rowids =
        List.concat_map
          (fun p ->
            if
              !first_non_empty
              && Dialect.equal ctx.dialect Dialect.Sqlite_like
              && bug ctx Bug.Sq_or_index_dedup
            then [] (* buggy: later branches skipped once one matched *)
            else
              match path_rowids ~distinct ctx p with
              | Some ids ->
                  if ids <> [] then first_non_empty := true;
                  ids
              | None -> [])
          paths
      in
      Some (List.sort_uniq Int64.compare rowids)

and skip_scan_rowids ?(distinct = false) ctx (index : Storage.Index.t) =
  let acc = ref [] in
  if
    distinct
    && Dialect.equal ctx.dialect Dialect.Sqlite_like
    && bug ctx Bug.Sq_skip_scan_distinct
  then begin
    (* buggy: the skip-scan enumerates distinct leading-key values and the
       DISTINCT flag makes it emit only one row per leading value *)
    let seen = Hashtbl.create 16 in
    Storage.Index.iter
      (fun key rowid ->
        let k = if Array.length key = 0 then "" else Value.show key.(0) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          acc := rowid :: !acc
        end)
      index
  end
  else Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) index;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* FROM evaluation                                                     *)

type from_ctx = {
  in_join : bool; (* more than one base table in the query *)
  cond_has_cast : bool;
  cond_has_ifnull : bool;
  distinct : bool; (* the query is SELECT DISTINCT (Listing 6 trigger) *)
}

let expr_has f e = A.fold_expr (fun acc x -> acc || f x) false e

let has_cast = expr_has (function A.Cast _ -> true | _ -> false)
let has_ifnull = expr_has (function A.Func (A.F_ifnull, _) -> true | _ -> false)

type scanned = {
  tuples : binding list list;
  used_skip_scan : bool;
}

let view_columns (rs : result_set) = rs.rs_columns

(* Scan one base table under [where]: injected planner/index bug gates,
   access-path choice (with forced-plan override), rowid fetch, and the
   SCAN flight-recorder annotation.  Shared by the interpreted executor
   below and the compiled backend (Compile), which passes [block_size]
   so the SCAN operator reports its batch count. *)
let scan_rows ctx fctx ~where ~table:name ~alias:alias_name ?block_size
    (ts : Storage.Catalog.table_state) :
    ((Storage.Row.t * Storage.Schema.table) list * bool, Errors.t) result =
  let schema = ts.Storage.Catalog.schema in
          let table_indexes =
            Storage.Catalog.indexes_on ctx.catalog
              schema.Storage.Schema.table_name
          in
          (* postgres Listing 16 class: extended statistics + an
             expression/partial index break planning with an internal
             error (or, for the duplicate report, a crash) *)
          let stats_trigger =
            Dialect.equal ctx.dialect Dialect.Postgres_like
            && Storage.Catalog.statistics_on ctx.catalog
                 schema.Storage.Schema.table_name
               <> []
            && List.exists
                 (fun ix ->
                   Storage.Index.is_expression_index ix
                   || Storage.Index.is_partial ix)
                 table_indexes
            && where <> None
          in
          let* () =
            if stats_trigger && bug ctx Bug.Pg_dup_bitmapset_crash then
              raise
                (Errors.Crash
                   "segfault: negative bitmapset member in planner")
            else if stats_trigger && bug ctx Bug.Pg_stats_expr_index_bitmapset
            then
              Error
                (Errors.make Errors.Internal_error
                   "negative bitmapset member not allowed")
            else Ok ()
          in
          (* postgres Listing 17 class: an index over rows whose NULLs
             were overwritten by UPDATE trips an internal error on
             ordered comparisons *)
          let null_taint_trigger =
            Dialect.equal ctx.dialect Dialect.Postgres_like
            && schema.Storage.Schema.tainted_null_update
            && table_indexes <> []
            && (match where with
               | Some w ->
                   expr_has
                     (function
                       | A.Binary ((A.Lt | A.Le | A.Gt | A.Ge), _, _) -> true
                       | _ -> false)
                     w
               | None -> false)
          in
          let* () =
            if
              null_taint_trigger
              && (bug ctx Bug.Pg_index_null_value_error
                 || bug ctx Bug.Pg_dup_index_null_error)
            then
              Error
                (Errors.makef Errors.Internal_error
                   "found unexpected null value in index \"%s\""
                   (match table_indexes with
                   | ix :: _ -> ix.Storage.Index.index_name
                   | [] -> "?"))
            else Ok ()
          in
          (* mysql Listing 11 class: MEMORY-engine rows vanish from joins
             whose condition contains a CAST (or IFNULL for the duplicate
             report) *)
          let memory_bug =
            fctx.in_join
            && Dialect.equal ctx.dialect Dialect.Mysql_like
            && schema.Storage.Schema.engine = Some A.E_memory
            && ((bug ctx Bug.My_memory_join_cast && fctx.cond_has_cast)
               || (bug ctx Bug.My_dup_memory_join && fctx.cond_has_ifnull))
          in
          if memory_bug then Ok ([], false)
          else begin
            (match schema.Storage.Schema.engine with
            | Some A.E_memory -> cov ctx "ddl.engine_memory"
            | Some A.E_csv -> cov ctx "ddl.engine_csv"
            | Some A.E_myisam -> cov ctx "ddl.engine_myisam"
            | Some A.E_innodb | None -> ());
            (* planner only for single-table queries; its env resolves the
               table's columns (values irrelevant) so collation/affinity
               checks see the schema *)
            let forced =
              if fctx.in_join then None
              else forced_path_for ctx ~alias:alias_name ~table:name ~where
            in
            let path =
              if fctx.in_join then Planner.Full_scan
              else
                let path =
                  match forced with
                  | Some p -> p
                  | None ->
                      Telemetry.Span.timed ctx.telemetry Telemetry.Phase.Plan
                        (fun () ->
                          Planner.choose
                            (planner_env ctx schema ~alias:alias_name)
                            ctx.catalog schema ~where)
                in
                Telemetry.inc_handle ctx.profile.p_plan.(plan_index path);
                path
            in
            let used_skip_scan =
              match path with Planner.Skip_scan _ -> true | _ -> false
            in
            let shown_path =
              if tracing ctx then
                Planner.show_path path
                ^ if Option.is_some forced then " (forced)" else ""
              else ""
            in
            if tracing ctx && not fctx.in_join then
              Trace.record ctx.recorder
                (Trace.Event.Plan { table = alias_name; path = shown_path });
            let scan_t0 = op_clock ctx in
            let scan_b0 =
              if tracing ctx then path_btree_profile path else (0, 0)
            in
            let full_scan () =
              match
                pk_index schema
                  (Storage.Catalog.indexes_on ctx.catalog
                     schema.Storage.Schema.table_name)
              with
              | Some pk when schema.Storage.Schema.without_rowid ->
                  (* WITHOUT ROWID: the PK b-tree is the table *)
                  let acc = ref [] in
                  Storage.Index.iter (fun _ rowid -> acc := rowid :: !acc) pk;
                  List.sort Int64.compare !acc
                  |> List.filter_map (fun rowid ->
                         match
                           Storage.Heap.find ts.Storage.Catalog.heap rowid
                         with
                         | Some r -> Some (r, schema)
                         | None -> None)
              | _ -> scan_table ctx ts
            in
            let rows =
              match path_rowids ~distinct:fctx.distinct ctx path with
              | None ->
                  cov ctx "plan.full_scan";
                  let rows = full_scan () in
                  if Telemetry.enabled ctx.telemetry then
                    Telemetry.inc_handle ~by:(List.length rows)
                      ctx.profile.p_scan_rows;
                  rows
              | Some rowids ->
                  List.filter_map
                    (fun rowid ->
                      match Storage.Heap.find ts.Storage.Catalog.heap rowid with
                      | Some r -> Some (r, schema)
                      | None -> None)
                    rowids
            in
            if tracing ctx then begin
              let b1 = path_btree_profile path in
              let n_out = List.length rows in
              let batches =
                match block_size with
                | None -> 0
                | Some bs -> Stdlib.max 1 ((n_out + bs - 1) / bs)
              in
              op_event ctx ~op:"SCAN"
                ~detail:(alias_name ^ " USING " ^ shown_path)
                ~rows_in:(Storage.Heap.row_count ts.Storage.Catalog.heap)
                ~rows_out:n_out ~batches
                ~btree:(fst b1 - fst scan_b0, snd b1 - snd scan_b0)
                ~t0:scan_t0 ()
            end;
            Ok (rows, used_skip_scan)
          end

(* Expand a view referenced in FROM: run its query through [run] (the
   calling pipeline), apply the injected pushdown defect, and annotate
   the VIEW operator.  Returns the view's column metadata (untyped,
   binary-collated) and rows.  Shared by both pipelines; [block_size]
   as in {!scan_rows}. *)
let expand_view ctx ~run ~where ~alias ?block_size
    (v : Storage.Catalog.view) =
  cov ctx "exec.view_expand";
  let view_t0 = op_clock ctx in
  let* rs = run ctx v.Storage.Catalog.view_query in
  let rows =
    (* injected: WHERE pushdown into a DISTINCT view drops the last row *)
    let is_distinct_view =
      match v.Storage.Catalog.view_query with
      | A.Q_select s -> s.A.sel_distinct
      | _ -> false
    in
    if
      is_distinct_view && where <> None
      && Dialect.equal ctx.dialect Dialect.Sqlite_like
      && bug ctx Bug.Sq_view_distinct_pushdown
    then
      match List.rev rs.rs_rows with [] -> [] | _ :: rest -> List.rev rest
    else rs.rs_rows
  in
  let columns =
    Array.of_list
      (List.map
         (fun c -> (String.lowercase_ascii c, Datatype.Any, Collation.Binary))
         (view_columns rs))
  in
  (if tracing ctx then
     let n_out = List.length rows in
     let batches =
       match block_size with
       | None -> 0
       | Some bs -> Stdlib.max 1 ((n_out + bs - 1) / bs)
     in
     op_event ctx ~op:"VIEW" ~detail:alias ~rows_in:(List.length rs.rs_rows)
       ~rows_out:n_out ~batches ~t0:view_t0 ());
  Ok (columns, rows)

(* ------------------------------------------------------------------ *)
(* Aggregation, shared by both pipelines                               *)

(* Each pipeline supplies how a group's tuples are evaluated; the folds,
   coverage points and injected defects below are the one definition of
   GROUP BY / aggregate / HAVING semantics. *)

let select_has_agg (s : A.select) =
  s.A.sel_group_by <> []
  || List.exists
       (function
         | A.Sel_expr (e, _) -> A.has_agg e
         | A.Star | A.Table_star _ -> false)
       s.A.sel_items
  || (match s.A.sel_having with Some h -> A.has_agg h | None -> false)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* One aggregate over a group of [rows] tuples.  [values a] evaluates the
   argument [a] once per tuple of the group, in group order. *)
let compute_agg ctx ~rows ~values (agg : A.expr) : (Value.t, Errors.t) result =
  match agg with
  | A.Agg (f, arg) -> (
      (match f with
      | A.A_count_star -> cov ctx "agg.count_star"
      | A.A_count -> cov ctx "agg.count"
      | A.A_sum -> cov ctx "agg.sum"
      | A.A_avg -> cov ctx "agg.avg"
      | A.A_min -> cov ctx "agg.min"
      | A.A_max -> cov ctx "agg.max"
      | A.A_total -> cov ctx "agg.total");
      (* injected crash: MIN/MAX over a COLLATE expression *)
      (match (f, arg) with
      | (A.A_min | A.A_max), Some a
        when Dialect.equal ctx.dialect Dialect.Sqlite_like
             && bug ctx Bug.Sq_agg_collate_crash
             && expr_has (function A.Collate _ -> true | _ -> false) a ->
          raise
            (Errors.Crash
               "segfault: stale collation sequence in aggregate comparator")
      | _ -> ());
      match f with
      | A.A_count_star -> Ok (Value.Int (Int64.of_int rows))
      | A.A_count -> (
          match arg with
          | None -> Ok (Value.Int (Int64.of_int rows))
          | Some a ->
              let* vs = values a in
              let n = List.length (List.filter (fun v -> not (Value.is_null v)) vs) in
              Ok (Value.Int (Int64.of_int n)))
      | A.A_sum | A.A_avg | A.A_total -> (
          let* vs =
            match arg with
            | Some a -> values a
            | None -> Error (Errors.make Errors.Invalid_function "SUM requires an argument")
          in
          let nums =
            List.filter_map
              (fun v ->
                if Value.is_null v then None else Some (Coerce.to_numeric v))
              vs
          in
          match f with
          | A.A_total ->
              let total =
                List.fold_left
                  (fun acc v ->
                    match v with
                    | Value.Int i -> acc +. Int64.to_float i
                    | Value.Real r -> acc +. r
                    | _ -> acc)
                  0.0 nums
              in
              Ok (Value.Real total)
          | A.A_sum | A.A_avg ->
              if nums = [] then Ok Value.Null
              else begin
                let all_int =
                  List.for_all
                    (fun v -> match v with Value.Int _ -> true | _ -> false)
                    nums
                in
                let sum_result =
                  if all_int then begin
                    let overflow = ref false in
                    let s =
                      List.fold_left
                        (fun acc v ->
                          match v with
                          | Value.Int i -> (
                              match Numeric.checked_add acc i with
                              | Some r -> r
                              | None ->
                                  overflow := true;
                                  acc)
                          | _ -> acc)
                        0L nums
                    in
                    if !overflow then Error (Errors.make Errors.Out_of_range "integer overflow")
                    else Ok (Value.Int s)
                  end
                  else
                    Ok
                      (Value.Real
                         (List.fold_left
                            (fun acc v ->
                              match v with
                              | Value.Int i -> acc +. Int64.to_float i
                              | Value.Real r -> acc +. r
                              | _ -> acc)
                            0.0 nums))
                in
                let* s = sum_result in
                if f = A.A_avg then
                  let total =
                    match s with
                    | Value.Int i -> Int64.to_float i
                    | Value.Real r -> r
                    | _ -> 0.0
                  in
                  Ok (Value.Real (total /. float_of_int (List.length nums)))
                else Ok s
              end
          | _ -> assert false)
      | A.A_min | A.A_max -> (
          let* vs =
            match arg with
            | Some a -> values a
            | None -> Error (Errors.make Errors.Invalid_function "MIN requires an argument")
          in
          let non_null = List.filter (fun v -> not (Value.is_null v)) vs in
          match non_null with
          | [] -> Ok Value.Null
          | first :: rest ->
              let keep =
                match f with
                | A.A_min -> fun c -> c < 0
                | _ -> fun c -> c > 0
              in
              Ok
                (List.fold_left
                   (fun acc v ->
                     if keep (Value.compare_total v acc) then v else acc)
                   first rest)))
  | _ -> Error (Errors.make Errors.Internal_error "compute_agg on non-aggregate")

(* [e] with every aggregate replaced by its literal value over the group *)
let substitute_aggs ctx ~rows ~values e : (A.expr, Errors.t) result =
  let* table =
    map_result
      (fun a ->
        let* v = compute_agg ctx ~rows ~values a in
        Ok (a, v))
      (A.collect_aggs e)
  in
  Ok
    (A.map_expr
       (fun node ->
         match node with
         | A.Agg _ -> (
             match List.find_opt (fun (a, _) -> A.equal_expr a node) table with
             | Some (_, v) -> A.Lit v
             | None -> node)
         | _ -> node)
       e)

(* The GROUP BY expressions actually grouped on. *)
let group_exprs ctx (s : A.select) =
  (* postgres Listing 15 class: inherited tables break the primary-key
     functional dependency the grouping relies on *)
  let pk_only =
    Dialect.equal ctx.dialect Dialect.Postgres_like
    && bug ctx Bug.Pg_inherit_group_by_dedup
    &&
    match s.A.sel_from with
    | [ A.F_table { name; _ } ] -> (
        match Storage.Catalog.find_table ctx.catalog name with
        | Some ts ->
            let schema = ts.Storage.Catalog.schema in
            Storage.Catalog.children_of ctx.catalog
              schema.Storage.Schema.table_name
            <> []
            && schema.Storage.Schema.primary_key <> []
            && List.for_all
                 (fun pk ->
                   List.exists
                     (fun g ->
                       match g with
                       | A.Col { column; _ } ->
                           Storage.Schema.name_equal column pk
                       | _ -> false)
                     s.A.sel_group_by)
                 schema.Storage.Schema.primary_key
        | None -> false)
    | _ -> false
  in
  if pk_only then
    (* buggy: group by the primary key columns only *)
    match s.A.sel_from with
    | [ A.F_table { name; _ } ] -> (
        match Storage.Catalog.find_table ctx.catalog name with
        | Some ts ->
            List.map
              (fun pk -> A.col pk)
              ts.Storage.Catalog.schema.Storage.Schema.primary_key
        | None -> s.A.sel_group_by)
    | _ -> s.A.sel_group_by
  else s.A.sel_group_by

(* Partition [tuples] into groups in first-seen order, each group in
   input order.  [key_of exprs] prepares a per-tuple evaluator of the
   grouping expressions.  Without GROUP BY everything is one group, even
   when empty. *)
let group_rows ctx (s : A.select) ~key_of tuples =
  if s.A.sel_group_by = [] then Ok [ tuples ]
  else begin
    let key = key_of (group_exprs ctx s) in
    let table = Key_tbl.create 16 in
    let order = ref [] in
    let rec go = function
      | [] -> Ok ()
      | tuple :: rest ->
          let* ks = key tuple in
          let k = row_key ks in
          (match Key_tbl.find_opt table k with
          | Some group -> Key_tbl.replace table k (tuple :: group)
          | None ->
              Key_tbl.replace table k [ tuple ];
              order := k :: !order);
          go rest
    in
    let* () = go tuples in
    Ok (List.rev_map (fun k -> List.rev (Key_tbl.find table k)) !order)
  end

(* The aggregation operator: per group, HAVING, then the
   aggregate-substituted select items and ORDER BY keys.  [values g a]
   evaluates [a] over every tuple of group [g]; [eval g e] and
   [project g items] evaluate against the group's representative (its
   first tuple, or no tuple at all for an empty group). *)
let aggregate ctx (s : A.select) groups ~values ~eval ~project =
  let tvl_env = eval_env ctx in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | group :: rest ->
        let subst =
          substitute_aggs ctx ~rows:(List.length group) ~values:(values group)
        in
        let* keep =
          match s.A.sel_having with
          | None -> Ok true
          | Some h ->
              cov ctx "exec.having";
              let* h' = subst h in
              let* v = eval group h' in
              let* t = Eval.value_tvl tvl_env v in
              Ok (Tvl.equal t Tvl.True)
        in
        if not keep then go acc rest
        else
          let* items =
            map_result
              (function
                | A.Sel_expr (e, a) ->
                    let* e' = subst e in
                    Ok (A.Sel_expr (e', a))
                | it -> Ok it)
              s.A.sel_items
          in
          let* row = project group items in
          let* keys =
            map_result
              (fun (e, _) ->
                let* e' = subst e in
                eval group e')
              s.A.sel_order_by
          in
          go ((row, keys) :: acc) rest
  in
  go [] groups

(* Returns the binding tuples of one FROM item. *)
let rec from_tuples ctx fctx ~where (item : A.from_item) :
    (scanned, Errors.t) result =
  match item with
  | A.F_table { name; alias } -> (
      let alias_name = Option.value ~default:name alias in
      match Storage.Catalog.find_table ctx.catalog name with
      | Some ts ->
          let* rows, used_skip_scan =
            scan_rows ctx fctx ~where ~table:name ~alias:alias_name ts
          in
          let tuples =
            List.map
              (fun (row, sch) ->
                [ binding_of_table sch ~alias:alias_name row.Storage.Row.values ])
              rows
          in
          Ok { tuples; used_skip_scan }
      | None -> (
          match Storage.Catalog.find_view ctx.catalog name with
          | Some v ->
              let* columns, rows =
                expand_view ctx ~run:run_query ~where ~alias:alias_name v
              in
              let tuples =
                List.map
                  (fun row ->
                    [
                      {
                        b_alias = String.lowercase_ascii alias_name;
                        b_columns = columns;
                        b_values = row;
                      };
                    ])
                  rows
              in
              Ok { tuples; used_skip_scan = false }
          | None ->
              Error
                (Errors.makef Errors.No_such_table "no such table: %s" name)))
  | A.F_sub { sub; alias } ->
      (* derived table: materialize the subquery; columns are untyped and
         binary-collated, like a view expansion *)
      cov ctx "exec.subquery";
      let sub_t0 = op_clock ctx in
      let* rs = run_query ctx sub in
      let columns =
        Array.of_list
          (List.map
             (fun c ->
               (String.lowercase_ascii c, Datatype.Any, Collation.Binary))
             rs.rs_columns)
      in
      let tuples =
        List.map
          (fun row ->
            [
              {
                b_alias = String.lowercase_ascii alias;
                b_columns = columns;
                b_values = row;
              };
            ])
          rs.rs_rows
      in
      (if tracing ctx then
         let n = List.length rs.rs_rows in
         op_event ctx ~op:"SUBQUERY" ~detail:alias ~rows_in:n ~rows_out:n
           ~t0:sub_t0 ());
      Ok { tuples; used_skip_scan = false }
  | A.F_join { kind; left; right; on } ->
      (match kind with
      | A.Inner -> cov ctx "exec.join_inner"
      | A.Left -> cov ctx "exec.join_left"
      | A.Cross -> cov ctx "exec.join_cross");
      let* l = from_tuples ctx fctx ~where:None left in
      let* r = from_tuples ctx fctx ~where:None right in
      let join_t0 = op_clock ctx in
      (* a NULL-padded binding per table of the right side: taken from the
         first right tuple, or built from the schemas when it is empty *)
      let rec null_shape item =
        match item with
        | A.F_table { name; alias } -> (
            match Storage.Catalog.find_table ctx.catalog name with
            | Some ts ->
                let schema = ts.Storage.Catalog.schema in
                [
                  binding_of_table schema
                    ~alias:(Option.value ~default:name alias)
                    (Array.map
                       (fun (_ : Storage.Schema.column) -> Value.Null)
                       schema.Storage.Schema.columns);
                ]
            | None -> [])
        | A.F_join { left; right; _ } -> null_shape left @ null_shape right
        | A.F_sub _ -> []
      in
      let null_extend tuple =
        match r.tuples with
        | sample :: _ ->
            tuple
            @ List.map
                (fun b ->
                  { b with b_values = Array.map (fun _ -> Value.Null) b.b_values })
                sample
        | [] -> tuple @ null_shape right
      in
      let rec combine acc = function
        | [] -> Ok (List.rev acc)
        | lt :: rest ->
            let rec walk_right acc_r matched = function
              | [] ->
                  let acc_r =
                    if (not matched) && kind = A.Left then
                      null_extend lt :: acc_r
                    else acc_r
                  in
                  Ok acc_r
              | rt :: more -> (
                  let combined = lt @ rt in
                  match (kind, on) with
                  | A.Cross, _ | _, None ->
                      walk_right (combined :: acc_r) true more
                  | _, Some cond -> (
                      match Eval.eval_tvl (env_for ctx combined) cond with
                      | Ok Tvl.True -> walk_right (combined :: acc_r) true more
                      | Ok (Tvl.False | Tvl.Unknown) ->
                          walk_right acc_r matched more
                      | Error e -> Error e))
            in
            let* produced = walk_right [] false r.tuples in
            combine (List.rev_append produced acc) rest
      in
      (* forced join-order swap: the right side drives the outer loop, the
         left is re-walked per right tuple.  Bindings still concatenate in
         textual order (lt @ rt) so projection and resolution are
         unchanged — only the scan order moves, which must not be
         observable for inner/cross joins.  LEFT joins are never swapped:
         their NULL extension is asymmetric. *)
      let swap =
        swap_join_forced ctx
        && match kind with A.Inner | A.Cross -> true | A.Left -> false
      in
      let rec combine_swapped acc = function
        | [] -> Ok (List.rev acc)
        | rt :: rest ->
            let rec walk_left acc_l = function
              | [] -> Ok acc_l
              | lt :: more -> (
                  let combined = lt @ rt in
                  match (kind, on) with
                  | A.Cross, _ | _, None -> walk_left (combined :: acc_l) more
                  | _, Some cond -> (
                      match Eval.eval_tvl (env_for ctx combined) cond with
                      | Ok Tvl.True -> walk_left (combined :: acc_l) more
                      | Ok (Tvl.False | Tvl.Unknown) -> walk_left acc_l more
                      | Error e -> Error e))
            in
            let* produced = walk_left [] l.tuples in
            combine_swapped (List.rev_append produced acc) rest
      in
      let* tuples =
        if swap then combine_swapped [] r.tuples else combine [] l.tuples
      in
      if tracing ctx then
        op_event ctx ~op:"JOIN"
          ~detail:
            ((match kind with
             | A.Inner -> "INNER"
             | A.Left -> "LEFT"
             | A.Cross -> "CROSS")
            ^ if swap then " (forced swap)" else "")
          ~rows_in:(List.length l.tuples + List.length r.tuples)
          ~rows_out:(List.length tuples) ~t0:join_t0 ();
      Ok
        {
          tuples;
          used_skip_scan = l.used_skip_scan || r.used_skip_scan;
        }

and eval_over ctx tuples e =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tuple :: rest ->
        let* v = Eval.eval (env_for ctx tuple) e in
        go (v :: acc) rest
  in
  go [] tuples

(* ------------------------------------------------------------------ *)
(* SELECT pipeline                                                     *)

and output_columns ctx (bindings_sample : binding list) items :
    (string list, Errors.t) result =
  ignore ctx;
  let item_columns = function
    | A.Star ->
        Ok
          (List.concat_map
             (fun b ->
               Array.to_list (Array.map (fun (n, _, _) -> n) b.b_columns))
             bindings_sample)
    | A.Table_star t -> (
        match
          List.find_opt
            (fun b -> Storage.Schema.name_equal b.b_alias t)
            bindings_sample
        with
        | Some b -> Ok (Array.to_list (Array.map (fun (n, _, _) -> n) b.b_columns))
        | None -> Error (no_such_binding t))
    | A.Sel_expr (_, Some alias) -> Ok [ alias ]
    | A.Sel_expr (A.Col { column; _ }, None) -> Ok [ column ]
    | A.Sel_expr (e, None) -> Ok [ Sqlast.Sql_printer.expr Dialect.Sqlite_like e ]
  in
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | item :: rest ->
        let* cols = item_columns item in
        go (cols :: acc) rest
  in
  go [] items

and project_row ctx tuple items : (Value.t array, Errors.t) result =
  let env = env_for ctx tuple in
  let item_values = function
    | A.Star -> Ok (List.concat_map (fun b -> Array.to_list b.b_values) tuple)
    | A.Table_star t -> (
        match
          List.find_opt (fun b -> Storage.Schema.name_equal b.b_alias t) tuple
        with
        | Some b -> Ok (Array.to_list b.b_values)
        | None -> Error (no_such_binding t))
    | A.Sel_expr (e, _) ->
        let* v = Eval.eval env e in
        Ok [ v ]
  in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.concat (List.rev acc)))
    | item :: rest ->
        let* vs = item_values item in
        go (vs :: acc) rest
  in
  go [] items

and run_select ctx (s : A.select) : (result_set, Errors.t) result =
  let where = s.A.sel_where in
  if s.A.sel_from = [] then begin
    (* constant SELECT *)
    let* columns = output_columns ctx [] s.A.sel_items in
    let* row = project_row ctx [] s.A.sel_items in
    let* rows =
      match where with
      | None -> Ok [ row ]
      | Some w -> (
          match Eval.eval_tvl (env_for ctx []) w with
          | Ok Tvl.True -> Ok [ row ]
          | Ok (Tvl.False | Tvl.Unknown) -> Ok []
          | Error e -> Error e)
    in
    Ok { rs_columns = columns; rs_rows = rows }
  end
  else begin
    let cond_has_cast =
      (match where with Some w -> has_cast w | None -> false)
      || List.exists
           (function
             | A.Sel_expr (e, _) -> has_cast e
             | A.Star | A.Table_star _ -> false)
           s.A.sel_items
    in
    let cond_has_ifnull =
      match where with Some w -> has_ifnull w | None -> false
    in
    let base_table_count =
      let rec count = function
        | A.F_table _ -> 1
        | A.F_join { left; right; _ } -> count left + count right
        | A.F_sub _ -> 1
      in
      List.fold_left (fun acc it -> acc + count it) 0 s.A.sel_from
    in
    let fctx =
      {
        in_join = base_table_count > 1;
        cond_has_cast;
        cond_has_ifnull;
        distinct = s.A.sel_distinct;
      }
    in
    (* FROM: cross product of the comma-separated items *)
    let* scans =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* sc = from_tuples ctx fctx ~where item in
            go (sc :: acc) rest
      in
      go [] s.A.sel_from
    in
    let used_skip_scan = List.exists (fun sc -> sc.used_skip_scan) scans in
    let tuples =
      match scans with
      | [] -> []
      | [ a; b ] when swap_join_forced ctx ->
          (* forced join-order swap for the two-item comma FROM: iterate
             the second table in the outer loop; bindings stay in textual
             order so projection is unchanged *)
          List.concat_map
            (fun tr -> List.map (fun tl -> tl @ tr) a.tuples)
            b.tuples
      | first :: rest ->
          List.fold_left
            (fun acc sc ->
              List.concat_map
                (fun tl -> List.map (fun tr -> tl @ tr) sc.tuples)
                acc)
            first.tuples rest
    in
    (* WHERE *)
    let filter_t0 = op_clock ctx in
    let* filtered =
      match where with
      | None -> Ok tuples
      | Some w ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | tuple :: rest -> (
                match Eval.eval_tvl (env_for ctx tuple) w with
                | Ok Tvl.True -> go (tuple :: acc) rest
                | Ok (Tvl.False | Tvl.Unknown) -> go acc rest
                | Error e -> Error e)
          in
          go [] tuples
    in
    if tracing ctx && where <> None then
      op_event ctx ~op:"FILTER" ~detail:"WHERE"
        ~rows_in:(List.length tuples)
        ~rows_out:(List.length filtered) ~t0:filter_t0 ();
    let sample_bindings =
      match filtered with
      | t :: _ -> t
      | [] -> ( match tuples with t :: _ -> t | [] -> [])
    in
    let* columns = output_columns ctx sample_bindings s.A.sel_items in
    (* GROUP BY / aggregation *)
    let agg_t0 = op_clock ctx in
    let* out_rows_with_keys =
      if select_has_agg s then begin
        cov ctx "exec.group_by";
        let* groups =
          group_rows ctx s filtered ~key_of:(fun exprs tuple ->
              let env = env_for ctx tuple in
              let* ks = map_result (Eval.eval env) exprs in
              Ok (Array.of_list ks))
        in
        let rep group = match group with t :: _ -> t | [] -> [] in
        aggregate ctx s groups
          ~values:(fun group -> eval_over ctx group)
          ~eval:(fun group e -> Eval.eval (env_for ctx (rep group)) e)
          ~project:(fun group items -> project_row ctx (rep group) items)
      end
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | tuple :: rest ->
              let* row = project_row ctx tuple s.A.sel_items in
              let env = env_for ctx tuple in
              let* keys =
                map_result (fun (e, _) -> Eval.eval env e) s.A.sel_order_by
              in
              go ((row, keys) :: acc) rest
        in
        go [] filtered
    in
    if tracing ctx && select_has_agg s then
      op_event ctx ~op:"AGGREGATE"
        ~detail:(if s.A.sel_group_by = [] then "" else "GROUP BY")
        ~rows_in:(List.length filtered)
        ~rows_out:(List.length out_rows_with_keys) ~t0:agg_t0 ();
    (* DISTINCT *)
    ignore used_skip_scan;
    let out_rows_with_keys =
      if s.A.sel_distinct then begin
        cov ctx "exec.distinct";
        let d_t0 = op_clock ctx in
        let n_in = if tracing ctx then List.length out_rows_with_keys else 0 in
        let deduped =
          dedup_by ~key:(fun (row, _) -> row_key row) out_rows_with_keys
        in
        if tracing ctx then
          op_event ctx ~op:"DISTINCT" ~rows_in:n_in
            ~rows_out:(List.length deduped) ~t0:d_t0 ();
        deduped
      end
      else out_rows_with_keys
    in
    (* ORDER BY *)
    let ordered =
      if s.A.sel_order_by = [] then
        if Options.reverse_unordered_selects ctx.options then
          List.rev out_rows_with_keys
        else out_rows_with_keys
      else begin
        cov ctx "exec.order_by";
        let sort_t0 = op_clock ctx in
        (* sort keys are compared under each ORDER BY expression's
           collation (explicit COLLATE or the column's), like sqlite *)
        let dirs_and_colls =
          List.map
            (fun (e, dir) ->
              let coll =
                match Eval.column_meta (env_for ctx sample_bindings) e with
                | Some (_, c) -> c
                | None -> Collation.Binary
              in
              let coll =
                match e with A.Collate (_, c) -> c | _ -> coll
              in
              (dir, coll))
            s.A.sel_order_by
        in
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp ks1 ks2 dcs =
              match (ks1, ks2, dcs) with
              | k1 :: r1, k2 :: r2, (d, coll) :: rd ->
                  let c = Value.compare_total ~collation:coll k1 k2 in
                  let c = match d with A.Asc -> c | A.Desc -> -c in
                  if c <> 0 then c else cmp r1 r2 rd
              | _ -> 0
            in
            cmp ka kb dirs_and_colls)
          out_rows_with_keys
        |> fun sorted ->
        (if tracing ctx then
           let n = List.length sorted in
           op_event ctx ~op:"SORT"
             ~detail:(Printf.sprintf "%d keys" (List.length s.A.sel_order_by))
             ~rows_in:n ~rows_out:n ~t0:sort_t0 ());
        sorted
      end
    in
    (* LIMIT / OFFSET *)
    let limit_t0 = op_clock ctx in
    let rows = List.map fst ordered in
    let pre_limit = if tracing ctx then List.length rows else 0 in
    let rows =
      match s.A.sel_offset with
      | None -> rows
      | Some off ->
          cov ctx "exec.limit";
          let off = Int64.to_int off in
          if off <= 0 then rows
          else List.filteri (fun i _ -> i >= off) rows
    in
    let rows =
      match s.A.sel_limit with
      | None -> rows
      | Some n ->
          cov ctx "exec.limit";
          let n = Int64.to_int n in
          if n < 0 then rows else List.filteri (fun i _ -> i < n) rows
    in
    if tracing ctx && (s.A.sel_limit <> None || s.A.sel_offset <> None) then
      op_event ctx ~op:"LIMIT" ~rows_in:pre_limit
        ~rows_out:(List.length rows) ~t0:limit_t0 ();
    Ok { rs_columns = columns; rs_rows = rows }
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

and run_query ctx (q : A.query) : (result_set, Errors.t) result =
  (* corruption gates every read (paper: 'malformed database' is always an
     unexpected error) *)
  match Storage.Catalog.corruption ctx.catalog with
  | Some msg -> Error (Errors.make Errors.Malformed_database msg)
  | None -> (
      match q with
      | A.Q_select s -> run_select ctx s
      | A.Q_values rows ->
          cov ctx "exec.values";
          let env = env_for ctx [] in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | row :: rest ->
                let rec vals acc' = function
                  | [] -> Ok (Array.of_list (List.rev acc'))
                  | e :: more ->
                      let* v = Eval.eval env e in
                      vals (v :: acc') more
                in
                let* r = vals [] row in
                go (r :: acc) rest
          in
          let* rows = go [] rows in
          let width = match rows with r :: _ -> Array.length r | [] -> 0 in
          let columns = List.init width (fun i -> Printf.sprintf "column%d" (i + 1)) in
          Ok { rs_columns = columns; rs_rows = rows }
      | A.Q_compound (op, qa, qb) ->
          (match op with
          | A.Union | A.Union_all -> cov ctx "exec.compound_union"
          | A.Intersect -> cov ctx "exec.compound_intersect"
          | A.Except -> cov ctx "exec.compound_except");
          let* ra = run_query ctx qa in
          let* rb = run_query ctx qb in
          let compound_t0 = op_clock ctx in
          let wa = List.length ra.rs_columns and wb = List.length rb.rs_columns in
          if wa <> wb then
            Error
              (Errors.make Errors.Syntax_error
                 "SELECTs to the left and right of a compound operator do \
                  not have the same number of result columns")
          else
            let keyset rows =
              let t = Key_tbl.create 16 in
              List.iter (fun r -> Key_tbl.replace t (row_key r) ()) rows;
              t
            in
            let rows =
              match op with
              | A.Union -> dedup_rows (ra.rs_rows @ rb.rs_rows)
              | A.Union_all -> ra.rs_rows @ rb.rs_rows
              | A.Intersect ->
                  let inb = keyset rb.rs_rows in
                  dedup_rows
                    (List.filter (fun r -> Key_tbl.mem inb (row_key r)) ra.rs_rows)
              | A.Except ->
                  let inb = keyset rb.rs_rows in
                  dedup_rows
                    (List.filter
                       (fun r -> not (Key_tbl.mem inb (row_key r)))
                       ra.rs_rows)
            in
            if tracing ctx then
              op_event ctx ~op:"COMPOUND"
                ~detail:
                  (match op with
                  | A.Union -> "UNION"
                  | A.Union_all -> "UNION ALL"
                  | A.Intersect -> "INTERSECT"
                  | A.Except -> "EXCEPT")
                ~rows_in:(List.length ra.rs_rows + List.length rb.rs_rows)
                ~rows_out:(List.length rows) ~t0:compound_t0 ();
            Ok { rs_columns = ra.rs_columns; rs_rows = rows })

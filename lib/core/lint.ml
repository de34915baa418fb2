(* The static-analysis bridge.

   Connects lib/analysis to the PQS loop: builds Analysis environments
   from the live session's catalog (the same Schema_info snapshot the
   generators use), typechecks containment queries, and lints the access
   path the planner would pick for each single-table scan in them.

   The generators are well-typed by construction, so any error diagnostic
   is an analyzer or generator defect.  [sweep] runs the analysis over a
   seed corpus ([make lint], [sqlancer lint]); the test suite also runs it
   as an observer over a bug-free campaign.  Plan linting needs a clean
   engine: injected planner bugs produce inconsistent paths on purpose. *)

open Sqlval
module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Environment builders                                               *)

let table_of_info (ti : Schema_info.table_info) : Analysis.Typecheck.table =
  {
    Analysis.Typecheck.tab_name = ti.Schema_info.ti_name;
    tab_columns =
      List.map
        (fun (ci : Schema_info.column_info) ->
          {
            Analysis.Typecheck.col_name = ci.Schema_info.ci_name;
            col_type = ci.Schema_info.ci_type;
            col_collation = ci.Schema_info.ci_collation;
            col_nullability =
              (if ci.Schema_info.ci_not_null then
                 Analysis.Nullability.Not_null
               else Analysis.Nullability.Maybe_null);
          })
        ti.Schema_info.ti_columns;
  }

let env_of_session session : Analysis.env =
  let tables =
    Schema_info.tables_of_session session |> List.map table_of_info
  in
  (* views contribute untyped, binary-collation columns, mirroring how
     view rows re-enter the engine *)
  let views =
    Schema_info.views_of_session session
    |> List.map (fun (name, cols) ->
           {
             Analysis.Typecheck.tab_name = name;
             tab_columns =
               List.map
                 (fun c ->
                   {
                     Analysis.Typecheck.col_name = c;
                     col_type = Datatype.Any;
                     col_collation = Collation.Binary;
                     col_nullability = Analysis.Nullability.Maybe_null;
                   })
                 cols;
           })
  in
  Analysis.env (Engine.Session.dialect session) (tables @ views)

let env_of_pivot dialect (pivot : (Schema_info.table_info * Value.t array) list)
    : Analysis.env =
  let tables =
    List.map
      (fun ((ti : Schema_info.table_info), row) ->
        {
          Analysis.Typecheck.tab_name = ti.Schema_info.ti_name;
          tab_columns =
            List.mapi
              (fun i (ci : Schema_info.column_info) ->
                let v =
                  if i < Array.length row then row.(i) else Value.Null
                in
                {
                  Analysis.Typecheck.col_name = ci.Schema_info.ci_name;
                  col_type = ci.Schema_info.ci_type;
                  col_collation = ci.Schema_info.ci_collation;
                  col_nullability = Analysis.Nullability.of_value v;
                })
              ti.Schema_info.ti_columns;
        })
      pivot
  in
  Analysis.env dialect tables

(* ------------------------------------------------------------------ *)
(* Statement and plan analysis                                        *)

let check_stmt session stmt = Analysis.check_stmt (env_of_session session) stmt

(* Single-table scans inside the query (including derived tables and
   compound arms) — exactly the shapes the planner handles
   (Explain.from_lines mirrors the same walk). *)
type site = {
  site_alias : string;
  site_table : string;
  site_schema : Storage.Schema.table;
  site_where : A.expr option;
  site_distinct : bool;
}

let rec sites_of_query session (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) ->
      sites_of_query session b (sites_of_query session a acc)
  | A.Q_select s -> (
      let acc =
        List.fold_left (fun acc it -> sites_of_from session it acc) acc
          s.A.sel_from
      in
      match s.A.sel_from with
      | [ A.F_table { name; alias } ] -> (
          let catalog = Engine.Session.catalog session in
          match Storage.Catalog.find_table catalog name with
          | Some ts ->
              {
                site_alias = Option.value ~default:name alias;
                site_table = name;
                site_schema = ts.Storage.Catalog.schema;
                site_where = s.A.sel_where;
                site_distinct = s.A.sel_distinct;
              }
              :: acc
          | None -> acc)
      | _ -> acc)

and sites_of_from session (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } ->
      sites_of_from session right (sites_of_from session left acc)
  | A.F_sub { sub; _ } -> sites_of_query session sub acc

let scan_sites session q = sites_of_query session q []

let lint_plans session (q : A.query) : Analysis.Diagnostic.t list =
  let ctx = Engine.Session.ctx session in
  let env = Engine.Executor.eval_env ctx in
  let catalog = Engine.Session.catalog session in
  scan_sites session q
  |> List.concat_map (fun { site_schema = schema; site_where = where; _ } ->
         let path = Engine.Planner.choose env catalog schema ~where in
         Analysis.lint_plan env catalog schema ~where path)

(* ------------------------------------------------------------------ *)
(* Seed-corpus sweep (make lint / sqlancer lint / test_analysis)       *)

type sweep_result = {
  sw_seeds : int;
  sw_queries : int;  (** containment statements analyzed *)
  sw_plans : int;  (** single-table scan sites linted *)
  sw_diags : (int * Analysis.Diagnostic.t) list;
      (** every type/nullability/plan diagnostic, tagged with its seed *)
  sw_simplify_diags : (int * Analysis.Diagnostic.t) list;
      (** simplification/interval findings (always-true, dead-case-branch,
          unsat-predicate, out-of-interval) — advisory warnings about the
          generated predicates, counted separately from [sw_diags] *)
}

(* Every WHERE clause in the query, including derived tables and compound
   arms — the inputs of the interval and simplification lints. *)
let rec where_sites (q : A.query) acc =
  match q with
  | A.Q_values _ -> acc
  | A.Q_compound (_, a, b) -> where_sites b (where_sites a acc)
  | A.Q_select s ->
      let acc =
        List.fold_left (fun acc it -> where_subs it acc) acc s.A.sel_from
      in
      (match s.A.sel_where with Some w -> w :: acc | None -> acc)

and where_subs (it : A.from_item) acc =
  match it with
  | A.F_table _ -> acc
  | A.F_join { left; right; _ } -> where_subs right (where_subs left acc)
  | A.F_sub { sub; _ } -> where_sites sub acc

let sweep ?(queries_per_seed = 3) ~seed_lo ~seed_hi dialect : sweep_result =
  let seeds = ref 0 and queries = ref 0 and plans = ref 0 in
  let diags = ref [] and simplify_diags = ref [] in
  for seed = seed_lo to seed_hi do
    incr seeds;
    let rng = Rng.make ~seed in
    let session =
      Engine.Session.create ~seed ~bugs:Engine.Bug.empty_set dialect
    in
    let gen_cfg =
      Gen_db.Config.(
        make dialect |> with_rng rng |> with_max_rows 5
        |> with_extra_statements 4)
    in
    let exec stmt =
      match Engine.Session.execute session stmt with
      | Ok _ | Error _ -> ()
      | exception Engine.Errors.Crash _ -> ()
    in
    List.iter exec (Gen_db.initial_statements gen_cfg);
    Schema_info.tables_of_session session
    |> List.iter (fun (ti : Schema_info.table_info) ->
           for _ = 1 to 2 do
             exec
               (Gen_db.insert_stmt
                  ~existing_rows:
                    (Schema_info.rows_of_table session ti.Schema_info.ti_name)
                  gen_cfg ti)
           done);
    List.iter exec (Gen_db.random_statements gen_cfg session);
    List.iter exec (Gen_db.fill_statements gen_cfg session);
    let sources =
      Schema_info.tables_of_session session
      |> List.filter_map (fun (ti : Schema_info.table_info) ->
             match
               Schema_info.rows_of_table session ti.Schema_info.ti_name
             with
             | [] -> None
             | rows -> Some (ti, rows))
    in
    if sources <> [] then begin
      let csl =
        Engine.Options.case_sensitive_like (Engine.Session.options session)
      in
      (* interval domains over the declared schema and a column-free
         folding environment: the simplification lints need no pivot *)
      let idom =
        Analysis.Interval.of_tables dialect
          (Schema_info.tables_of_session session |> List.map table_of_info)
      in
      let cenv = Analysis.Const_fold.const_env ~case_sensitive_like:csl dialect in
      for _ = 1 to queries_per_seed do
        let chosen =
          let k = if List.length sources >= 2 && Rng.bool rng then 2 else 1 in
          Rng.sample rng k sources
        in
        let pivot =
          List.map
            (fun ((ti : Schema_info.table_info), rows) ->
              (ti, Rng.pick rng rows))
            chosen
        in
        let rec attempt tries =
          if tries <= 0 then None
          else
            match
              Gen_query.synthesize ~rng ~dialect ~pivot
                ~case_sensitive_like:csl ~max_depth:4 ~check_expressions:true
                ()
            with
            | Ok t -> Some t
            | Error _ -> attempt (tries - 1)
        in
        match attempt 5 with
        | None -> ()
        | Some t ->
            let stmt = Gen_query.containment_stmt t in
            incr queries;
            let tdiags = check_stmt session stmt in
            let pdiags =
              match stmt with
              | A.Select_stmt q | A.Explain q | A.Explain_analyze q ->
                  plans := !plans + List.length (scan_sites session q);
                  lint_plans session q
              | _ -> []
            in
            List.iter
              (fun d -> diags := (seed, d) :: !diags)
              (tdiags @ pdiags);
            (match stmt with
            | A.Select_stmt q | A.Explain q | A.Explain_analyze q ->
                List.iter
                  (fun w ->
                    List.iter
                      (fun d -> simplify_diags := (seed, d) :: !simplify_diags)
                      (Analysis.Interval.check idom w
                      @ Analysis.Simplify.where_diagnostics cenv w))
                  (where_sites q [])
            | _ -> ())
      done
    end
  done;
  {
    sw_seeds = !seeds;
    sw_queries = !queries;
    sw_plans = !plans;
    sw_diags = List.rev !diags;
    sw_simplify_diags = List.rev !simplify_diags;
  }

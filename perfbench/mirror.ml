(* The traced runner: [Runner.run_round] and [Runner.run] re-told from
   outside the program, through the layers' public functions, with a span
   around each call.  It must draw the same randomness in the same order
   as the runner, so it does the same work; [Work] comparison against the
   real runner checks that it still does (trace.work_match).

   It covers the configurations the workloads use: blind generation (not
   guided), no coverage instrument, no flight recorder or bundles.  The
   runner's own telemetry stays the config's (noop); the test session gets
   an enabled registry only so the engine's scan counters can be read
   around each containment query. *)

open Sqlval
module L = Tracer
module O = Pqs.Oracle
module SI = Pqs.Schema_info

(* each oracle's observe inside its layer's span, under the same name:
   the runner switches plan_diff and const_opt on by name *)
let traced_oracles tr oracles =
  List.map
    (fun o ->
      let layer = L.of_oracle_name (O.name o) in
      O.make ~name:(O.name o) (fun ctx ev ->
          L.span tr layer (fun () -> O.observe o ctx ev)))
    oracles

let rows_scanned reg = Telemetry.counter_value reg "minidb_rows_scanned_total"

let btree_visits reg =
  Telemetry.counter_value reg "minidb_btree_node_visits_total"

(* [Runner.confirm_report]'s bug-free replay: the final statement's rows
   must satisfy [accept] *)
let ground_truth tr dialect script accept =
  L.span tr L.Ground_truth @@ fun () ->
  let session = Engine.Session.create ~bugs:Engine.Bug.empty_set dialect in
  let n = List.length script in
  let last = ref None in
  (try
     List.iteri
       (fun i stmt ->
         match Engine.Session.execute session stmt with
         | Ok (Engine.Session.Rows rs) ->
             if i = n - 1 then last := Some rs.Engine.Executor.rs_rows
         | Ok _ | Error _ -> ())
       script
   with Engine.Errors.Crash _ -> ());
  match !last with Some rows -> accept rows | None -> false

let run_round tr ~reg ~oracles (config : Pqs.Runner.config) ~db_seed : Work.t
    =
  let open Pqs.Runner.Config in
  let statements = ref 0 and checks = ref 0 and negatives = ref 0 in
  let interp_failures = ref 0 and false_positives = ref 0 in
  let report = ref [] in
  let rng = Pqs.Rng.make ~seed:db_seed in
  let session =
    L.span tr L.Session (fun () ->
        Engine.Session.create ~seed:db_seed ~bugs:config.bugs ~telemetry:reg
          ~recorder:Trace.noop ~backend:config.backend config.dialect)
  in
  let ctx =
    {
      O.ctx_dialect = config.dialect;
      ctx_session = session;
      ctx_db_seed = db_seed;
      ctx_rng = Pqs.Rng.make ~seed:(db_seed + 104651);
      ctx_telemetry = config.telemetry;
    }
  in
  let log = ref [] in
  let frontier = ref Frontier.empty in
  let record kind message =
    report := [ (db_seed, Pqs.Bug_report.oracle_token kind, message) ];
    true
  in
  let dispatch event = O.first_report oracles ctx event in
  let exec stmt =
    log := stmt :: !log;
    incr statements;
    let outcome =
      L.span tr L.Engine_write (fun () ->
          match Engine.Session.execute session stmt with
          | Ok r -> O.Succeeded r
          | Error e -> O.Failed e
          | exception Engine.Errors.Crash msg -> O.Crashed msg)
    in
    (match outcome with
    | O.Succeeded _ -> ()
    | O.Failed _ | O.Crashed _ -> tr.L.write_errors <- tr.L.write_errors + 1);
    match dispatch (O.Statement (stmt, outcome)) with
    | Some (kind, message) -> record kind message
    | None -> false
  in
  let exec_all stmts = List.exists exec stmts in
  let gen f = L.span tr L.Gen_db f and schema f = L.span tr L.Schema_info f in
  let gen_cfg =
    Pqs.Gen_db.Config.(
      make config.dialect |> with_rng rng
      |> with_table_count config.table_count
      |> with_max_rows config.max_rows
      |> with_extra_statements config.extra_statements)
  in
  let generation () =
    exec_all (gen (fun () -> Pqs.Gen_db.initial_statements gen_cfg))
    ||
    let fills =
      schema (fun () -> SI.tables_of_session session)
      |> List.concat_map (fun (ti : SI.table_info) ->
             List.init
               (Pqs.Rng.int_in rng 1 (max 1 (config.max_rows / 2)))
               (fun _ ->
                 let existing_rows =
                   schema (fun () -> SI.rows_of_table session ti.SI.ti_name)
                 in
                 gen (fun () ->
                     Pqs.Gen_db.insert_stmt ~existing_rows gen_cfg ti)))
    in
    exec_all fills
    ||
    let rec extra n =
      n > 0
      && (exec_all (gen (fun () -> Pqs.Gen_db.random_statements gen_cfg session))
         || extra (n - 1))
    in
    extra config.extra_statements
    || exec_all (gen (fun () -> Pqs.Gen_db.fill_statements gen_cfg session))
  in
  let confirm kind =
    let replay accept =
      let ok = ground_truth tr config.dialect (List.rev !log) accept in
      if not ok then tr.L.gt_rejects <- tr.L.gt_rejects + 1;
      ok
    in
    (not config.verify_ground_truth)
    ||
    match kind with
    | Pqs.Bug_report.Containment -> replay (fun rows -> rows <> [])
    | Pqs.Bug_report.Non_containment -> replay (fun rows -> rows = [])
    | _ -> true
  in
  let pivot_sources () =
    let tables =
      schema (fun () ->
          SI.tables_of_session session
          |> List.filter_map (fun (ti : SI.table_info) ->
                 match SI.rows_of_table session ti.SI.ti_name with
                 | [] -> None
                 | rows ->
                     Some ({ ti with SI.ti_row_count = List.length rows }, rows)))
    in
    let views =
      schema (fun () ->
          SI.view_pivot_sources session
          |> List.filter (fun (_, rows) -> rows <> []))
    in
    if views <> [] && Pqs.Rng.chance rng 0.25 then tables @ views else tables
  in
  let rec pivots k =
    k > 0
    &&
    match pivot_sources () with
    | [] -> false
    | sources ->
        let chosen =
          let k =
            if List.length sources >= 2 && Pqs.Rng.bool rng then 2 else 1
          in
          Pqs.Rng.sample rng k sources
        in
        let pivot =
          List.map
            (fun ((ti : SI.table_info), rows) -> (ti, Pqs.Rng.pick rng rows))
            chosen
        in
        let csl =
          Engine.Options.case_sensitive_like (Engine.Session.options session)
        in
        let rec queries q =
          q > 0
          &&
          let negative =
            config.check_non_containment
            && List.length pivot = 1
            && Pqs.Rng.chance rng 0.2
          in
          let target = if negative then Tvl.False else Tvl.True in
          let rec attempt tries =
            if tries <= 0 then None
            else
              match
                L.span tr L.Gen_query (fun () ->
                    Pqs.Gen_query.synthesize ~rectify:config.rectify ~target
                      ~telemetry:config.telemetry ~exec_backend:config.backend
                      ~rng ~dialect:config.dialect ~pivot
                      ~case_sensitive_like:csl ~max_depth:config.max_depth
                      ~check_expressions:
                        (config.check_expressions && not negative)
                      ())
              with
              | Ok t -> Some t
              | Error _ ->
                  incr interp_failures;
                  tr.L.synth_errors <- tr.L.synth_errors + 1;
                  attempt (tries - 1)
          in
          match attempt 5 with
          | None -> queries (q - 1)
          | Some t -> (
              L.span tr L.Frontier (fun () ->
                  frontier :=
                    Frontier.union !frontier
                      (Frontier.of_points ~seed:db_seed
                         (Pqs.Gen_bias.fingerprint t.Pqs.Gen_query.query)));
              incr checks;
              if negative then incr negatives;
              let stmt = Pqs.Gen_query.containment_stmt t in
              log := stmt :: !log;
              incr statements;
              let drop_and_continue () =
                log := List.tl !log;
                queries (q - 1)
              in
              let scanned = rows_scanned reg and visits = btree_visits reg in
              let outcome =
                L.span tr L.Engine_query (fun () ->
                    match Engine.Session.execute session stmt with
                    | r -> `Res r
                    | exception Engine.Errors.Crash msg -> `Crash msg)
              in
              tr.L.rows_scanned <- tr.L.rows_scanned + rows_scanned reg - scanned;
              tr.L.btree_visits <- tr.L.btree_visits + btree_visits reg - visits;
              let statement_event outcome =
                match dispatch (O.Statement (stmt, outcome)) with
                | Some (kind, message) -> record kind message
                | None -> drop_and_continue ()
              in
              match outcome with
              | `Res (Ok (Engine.Session.Rows rs)) -> (
                  let pivot_found = rs.Engine.Executor.rs_rows <> [] in
                  match
                    dispatch
                      (O.Containment_check
                         {
                           O.check_stmt = stmt;
                           negative;
                           pivot_found;
                           check_pivot = pivot;
                         })
                  with
                  | Some (kind, message) ->
                      if confirm kind then record kind message
                      else begin
                        incr false_positives;
                        drop_and_continue ()
                      end
                  | None -> drop_and_continue ())
              | `Res (Ok _) -> drop_and_continue ()
              | `Res (Error e) -> statement_event (O.Failed e)
              | `Crash msg -> statement_event (O.Crashed msg))
        in
        queries config.queries_per_pivot || pivots (k - 1)
  in
  ignore
    (generation ()
    || (match dispatch O.Database_ready with
       | Some (kind, message) -> record kind message
       | None -> false)
    || pivots config.pivots_per_db);
  {
    Work.rounds = 1;
    statements = !statements;
    checks = !checks;
    negative_checks = !negatives;
    interp_failures = !interp_failures;
    false_positives = !false_positives;
    reports = !report;
  }

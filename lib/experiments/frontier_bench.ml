(* Frontier accounting benchmark.

   Frontier recording runs on every campaign (fingerprints per query, one
   fold per round), so its cost is estimated in isolation — fingerprinting
   a synthesized corpus and replaying a campaign's per-round point lists
   through of_points/union — and compared against the campaign wall.
   Budget: <= 5%.  Recorded in BENCH_frontier.json. *)

open Sqlval

(* a corpus of synthesized query ASTs, for timing fingerprint extraction
   on realistic inputs *)
let query_corpus ~dialect ~seeds ~per_seed =
  List.concat_map
    (fun seed ->
      let rng = Pqs.Rng.make ~seed in
      let session =
        Engine.Session.create ~seed ~bugs:Engine.Bug.empty_set dialect
      in
      let gen_cfg =
        Pqs.Gen_db.Config.(
          make dialect |> with_rng rng |> with_max_rows 5
          |> with_extra_statements 4)
      in
      let exec stmt =
        match Engine.Session.execute session stmt with
        | Ok _ | Error _ -> ()
        | exception Engine.Errors.Crash _ -> ()
      in
      List.iter exec (Pqs.Gen_db.initial_statements gen_cfg);
      List.iter exec (Pqs.Gen_db.fill_statements gen_cfg session);
      let sources =
        Pqs.Schema_info.tables_of_session session
        |> List.filter_map (fun (ti : Pqs.Schema_info.table_info) ->
               match
                 Pqs.Schema_info.rows_of_table session
                   ti.Pqs.Schema_info.ti_name
               with
               | [] -> None
               | rows -> Some (ti, rows))
      in
      if sources = [] then []
      else
        List.filter_map
          (fun _ ->
            let chosen = Pqs.Rng.sample rng 1 sources in
            let pivot =
              List.map
                (fun ((ti : Pqs.Schema_info.table_info), rows) ->
                  (ti, Pqs.Rng.pick rng rows))
                chosen
            in
            match
              Pqs.Gen_query.synthesize ~rng ~dialect ~pivot
                ~case_sensitive_like:false ~max_depth:4
                ~check_expressions:true ()
            with
            | Ok t -> Some t.Pqs.Gen_query.query
            | Error _ -> None)
          (List.init per_seed Fun.id))
    seeds

let json ~campaign_wall ~overhead =
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"frontier\",";
      "  \"dialect\": \"sqlite\",";
      Printf.sprintf "  \"campaign_wall_s\": %.4f," campaign_wall;
      Printf.sprintf "  \"accounting_overhead_fraction\": %.4f," overhead;
      "  \"overhead_budget_fraction\": 0.05,";
      Printf.sprintf "  \"within_overhead_budget\": %b" (overhead < 0.05);
      "}";
    ]
  ^ "\n"

let run ?(overhead_databases = 80) ?(out = "BENCH_frontier.json") () =
  let dialect = Dialect.Sqlite_like in
  let config = Pqs.Runner.Config.make ~bugs:Engine.Bug.empty_set dialect in
  let c =
    Pqs.Campaign.run ~domains:1 ~seed_lo:1
      ~seed_hi:(1 + overhead_databases) config
  in
  (* best-of-3 campaign wall: the denominator of the overhead fraction is
     the noisiest term, and rounds are deterministic per seed, so minima
     are comparable (same idiom as the telemetry/trace gates) *)
  let wall =
    List.fold_left
      (fun acc _ ->
        let c' =
          Pqs.Campaign.run ~domains:1 ~seed_lo:1
            ~seed_hi:(1 + overhead_databases) config
        in
        min acc c'.Pqs.Campaign.elapsed)
      c.Pqs.Campaign.elapsed [ (); () ]
  in
  let per_round_points =
    List.map
      (fun (o : Pqs.Campaign.outcome) ->
        Frontier.points o.Pqs.Campaign.round.Pqs.Stats.frontier
        |> List.concat_map (fun (p, e) ->
               List.init e.Frontier.hits (fun _ -> p)))
      c.Pqs.Campaign.outcomes
  in
  (* best-of-batches microbench: per-batch means, minimum across batches
     (robust to scheduler noise, same idiom as the campaign wall above) *)
  let time ~outer ~inner f =
    let best = ref infinity in
    for _ = 1 to outer do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to inner do
        f ()
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int inner in
      if dt < !best then best := dt
    done;
    !best
  in
  let fold_cost =
    time ~outer:6 ~inner:10 (fun () ->
        ignore
          (List.fold_left
             (fun acc pts ->
               Frontier.union acc (Frontier.of_points ~seed:1 pts))
             Frontier.empty per_round_points))
  in
  let corpus = query_corpus ~dialect ~seeds:[ 11; 12; 13 ] ~per_seed:8 in
  let fp_cost =
    if corpus = [] then 0.0
    else
      time ~outer:6 ~inner:50 (fun () ->
          List.iter (fun q -> ignore (Pqs.Gen_bias.fingerprint q)) corpus)
      /. float_of_int (List.length corpus)
  in
  let queries = c.Pqs.Campaign.stats.Pqs.Stats.queries in
  let overhead =
    if wall <= 0.0 then 0.0
    else (fold_cost +. (fp_cost *. float_of_int queries)) /. wall
  in
  let oc = open_out out in
  output_string oc (json ~campaign_wall:wall ~overhead);
  close_out oc;
  Printf.printf
    "Frontier accounting overhead: %.2f%% of a %d-database campaign \
     (budget 5%%) (written to %s)\n"
    (100.0 *. overhead) overhead_databases out;
  if overhead >= 0.05 then
    Printf.printf
      "WARNING: frontier accounting overhead %.1f%% exceeds the 5%% budget\n"
      (100.0 *. overhead)

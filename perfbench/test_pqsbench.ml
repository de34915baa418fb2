(* Checks of the benchmark itself: the traced runner does the runner's
   work, repetitions are deterministic, and the result reader is total. *)

open Pqsbench
module R = Pqs.Runner
module W = Workload
module Rs = Results

let work = Alcotest.testable (fun ppf w -> Fmt.string ppf (Work.to_string w)) Work.equal
let works = Alcotest.list work

(* the traced runner's round against [Runner.run_round], one seed *)
let same_round config db_seed =
  let tr = Tracer.create () in
  let oracles = Mirror.traced_oracles tr config.R.Config.oracles in
  Alcotest.check work
    (Printf.sprintf "seed %d" db_seed)
    (Work.of_stats (R.run_round config ~db_seed))
    (Mirror.run_round tr ~reg:(Telemetry.create ()) ~oracles config ~db_seed)

let workload ?rounds ?cap name =
  Option.get (W.make ?rounds ?cap name ~seed:1)

(* small sizes of every workload: traced and untraced repetitions agree *)
let test_work_match () =
  List.iter
    (fun w ->
      let tr = Tracer.create () in
      let untraced = W.untraced w and traced = W.traced tr w in
      Alcotest.check works w.W.name untraced.W.units traced.W.units;
      Alcotest.(check bool)
        (w.W.name ^ " traced every layer call it timed")
        true
        (Tracer.total_self_s tr > 0.))
    [
      workload ~rounds:8 "mixed-default";
      workload ~rounds:4 "join-scan";
      workload ~rounds:8 "write-churn";
      workload ~cap:40 "catalog-hunt";
    ]

(* database seeds whose sqlite rounds had ground-truth rejections when the
   benchmark was written (the Interp / Eval disagreement on ~col over
   REAL), so the traced runner's replay path is compared too *)
let test_rejection_rounds () =
  let config = R.Config.make Sqlval.Dialect.Sqlite_like in
  List.iter (same_round config) [ 155; 100184; 400014 ]

(* the benchmark's hunt loop is [Runner.run ~stop_on_first:true] *)
let test_hunt_loop () =
  let w = workload ~cap:300 "catalog-hunt" in
  match w.W.kind with
  | W.Hunt { hunts; cap } ->
      List.iteri
        (fun i (bug, c) ->
          if i mod 7 = 0 then
            Alcotest.check work (Engine.Bug.show bug)
              (Work.of_stats (R.run ~stop_on_first:true ~max_queries:cap c))
              (W.hunt_loop ~cap c (fun ~db_seed ->
                   Work.of_stats (R.run_round c ~db_seed))))
        hunts
  | W.Campaign _ -> Alcotest.fail "catalog-hunt is a hunt"

let test_deterministic () =
  let w = workload ~cap:40 "catalog-hunt" in
  let a = W.untraced w and b = W.untraced w in
  Alcotest.check works "units" a.W.units b.W.units;
  Alcotest.(check bool) "found something" true (a.W.work.Work.reports <> [])

(* ------------------------------------------------------------------ *)
(* The result reader                                                   *)

let sample =
  {
    Rs.correct = true;
    attempted = 1200;
    failed = 2;
    metrics =
      [
        ("rounds_per_s", { Rs.value = 912.34567890123; unit_ = "1/s" });
        ("setup_s", { Rs.value = 0.0043219876543; unit_ = "s" });
        ("gen_query.calls", { Rs.value = 29862.; unit_ = "count" });
      ];
  }

let bench_json =
  {|{"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
  "run_seconds": 15, "workloads": [{"name": "a", "why": "b"}],
  "end_to_end": [
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
  "per_layer": [{"name": "gen_query.calls", "unit": "count", "better": "lower"}]}|}

let test_round_trip () =
  match Rs.of_line (Rs.to_line sample) with
  | Ok r -> Alcotest.(check bool) "decode . encode" true (r = sample)
  | Error e -> Alcotest.fail e

let prefixes s = List.init (String.length s) (fun n -> String.sub s 0 n)

(* each byte in turn replaced by characters that break JSON structure *)
let garbles s =
  List.concat_map
    (fun i ->
      List.map
        (fun c -> String.mapi (fun j x -> if i = j then c else x) s)
        [ '"'; '{'; ']'; '\\'; 'e'; '-'; '\000' ])
    (List.init (String.length s) Fun.id)

let total name decode inputs =
  List.iter
    (fun input ->
      match decode input with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e) input)
    inputs

let test_every_prefix () =
  let line = Rs.to_line sample in
  List.iter
    (fun p ->
      match Rs.of_line p with
      | Ok _ -> Alcotest.failf "accepted the truncated line %S" p
      | Error _ -> ())
    (prefixes line);
  let file = String.concat "\n" [ line; line; line ] ^ "\n" in
  total "of_lines" Rs.of_lines (prefixes file @ garbles line);
  total "specs_of_benchmark" Rs.specs_of_benchmark
    (prefixes bench_json @ garbles bench_json);
  match Rs.specs_of_benchmark bench_json with
  | Ok specs -> Alcotest.(check int) "three metrics" 3 (List.length specs)
  | Error e -> Alcotest.fail e

(* the spread check agrees with Python's statistics.quantiles *)
let test_spread () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (pair (float 1e-12) (float 1e-12))))
    "quartiles of 1..10" (Some (2.75, 8.25)) (Rs.quartiles xs);
  let specs = Result.get_ok (Rs.specs_of_benchmark bench_json) in
  let run v = { sample with Rs.metrics = [ ("rounds_per_s", { Rs.value = v; unit_ = "1/s" }) ] } in
  let steady = List.map run [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let slower = List.map (fun r -> run ((List.assoc "rounds_per_s" r.Rs.metrics).Rs.value *. 0.8)) steady in
  let ok rows = List.for_all (fun (r : Rs.row) -> r.Rs.ok) rows in
  Alcotest.(check bool) "steady" true (ok (Rs.compare_runs specs ~base:steady ()));
  Alcotest.(check bool) "20% slower exceeds a 10% bound" false
    (ok (Rs.compare_runs specs ~base:steady ~next:slower ()))

let () =
  Alcotest.run "pqsbench"
    [
      ( "traced runner",
        [
          Alcotest.test_case "work matches the runner" `Quick test_work_match;
          Alcotest.test_case "rejection rounds" `Quick test_rejection_rounds;
          Alcotest.test_case "hunt loop is Runner.run" `Quick test_hunt_loop;
          Alcotest.test_case "repetitions are deterministic" `Quick
            test_deterministic;
        ] );
      ( "results",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "every prefix and garble" `Quick test_every_prefix;
          Alcotest.test_case "spread and bounds" `Quick test_spread;
        ] );
    ]

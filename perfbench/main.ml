(* The benchmark's command line.  [run.py] builds this and calls it; see
   BENCHMARK.md for the workloads and metrics.

     main.exe run --workload W --seed N --seconds S --trace 0|1 [--setup-s X]
     main.exe setup --workload W --seed N --round I --spawned-at NS
     main.exe compare BENCHMARK.json BASE.jsonl [NEXT.jsonl]

   [run] prints a readable report, then as its last line one JSON result:
   the end-to-end metrics with [--trace 0], the per-layer metrics of the
   traced runner with [--trace 1].  [setup] runs the workload's [I]th
   set-up round and exits; [run.py] times it.  [compare] reads files of result
   lines and checks spreads and bounds against BENCHMARK.json. *)

open Pqsbench
module W = Workload
module L = Tracer
module Rs = Results

let now = Telemetry.Clock.now
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* linear interpolation between closest ranks; [q] in [0, 1] *)
let percentile q xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. fi (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. fi i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

(* bugs_found at the default cap, recorded per workload seed when the
   benchmark was written (97 is the held-out seed).  A run may find more,
   not fewer; an unrecorded seed must find at least [hunt_floor], two
   below the fewest recorded. *)
let recorded_hunts =
  [ (1, 45); (2, 48); (3, 48); (4, 47); (5, 45); (6, 48); (7, 47); (8, 48);
    (9, 48); (10, 46); (97, 45) ]

let hunt_floor = 43

type gc = { minor_words : float; major_collections : int }

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let line fmt = Printf.printf (fmt ^^ "\n%!")
let sum = List.fold_left ( +. ) 0.
let sumi f = List.fold_left (fun a x -> a + f x) 0

(* A repetition's wall time scaled to the reference host block by block,
   by the probes taken around each block (see {!Host}). *)
let scaled (r : W.rep) = Host.scaled ~blocks:r.W.blocks ~chunks:r.W.probes

(* Each round's scaled wall time, the median over the repetitions (which
   all run the same rounds in the same order). *)
let round_times (reps : W.rep list) =
  let columns = Array.make (List.length (List.hd reps).W.rounds) [] in
  List.iter
    (fun (r : W.rep) ->
      let f = Host.factors r.W.probes in
      List.iteri
        (fun i (x : W.round) ->
          columns.(i) <- (x.W.wall *. f.(x.W.block)) :: columns.(i))
        r.W.rounds)
    reps;
  Array.to_list (Array.map Rs.median columns)

(* bugs found and checks to each detection of one hunt sweep *)
let hunt_summary (w : W.t) (first : W.rep) ~sweep_s ~seed =
  match w.W.kind with
  | W.Campaign _ -> true
  | W.Hunt { hunts; cap } ->
      let found, missed =
        List.partition_map
          (fun ((bug, _), (u : Work.t)) ->
            if u.Work.reports <> [] then Left u.Work.checks else Right bug)
          (List.combine hunts first.W.units)
      in
      let bugs_found = List.length found in
      line "bugs_found %d of %d (cap %d checks); missed: %s" bugs_found
        (List.length hunts) cap
        (String.concat " " (List.map Engine.Bug.show missed));
      line "checks_to_detect_p50 %.1f checks; hunt_s %.4f s (one sweep, scaled)"
        (Rs.median (List.map fi found)) sweep_s;
      let expected =
        if cap <> W.default_cap then 0
        else Option.value (List.assoc_opt seed recorded_hunts) ~default:hunt_floor
      in
      if bugs_found < expected then
        line "DETECTION REGRESSION: seed %d found %d bugs, expected at least %d"
          seed bugs_found expected;
      bugs_found >= expected

let end_to_end (reps : W.rep list) ~setup_s ~heap_mb =
  let first = List.hd reps in
  let rep_s = Rs.median (List.map scaled reps) in
  let rate n = fi n /. rep_s in
  let round_ms = List.map (fun x -> x *. 1000.) (round_times reps) in
  line "unscaled: %.1f rounds/s (median repetition %.4f s); host factor %.3f"
    (fi first.W.work.Work.rounds /. Rs.median (List.map (fun (r : W.rep) -> r.W.wall) reps))
    (Rs.median (List.map (fun (r : W.rep) -> r.W.wall) reps))
    (Rs.median (List.map (fun (r : W.rep) -> Host.factor r.W.probes) reps));
  line "round latency over %d rounds, each the median of %d repetitions"
    (List.length round_ms) (List.length reps);
  [
    ("rounds_per_s", rate first.W.work.Work.rounds, "1/s");
    ("checks_per_s", rate first.W.work.Work.checks, "1/s");
    ("stmts_per_s", rate first.W.work.Work.statements, "1/s");
    ("round_p50_ms", percentile 0.5 round_ms, "ms");
    ("round_p99_ms", percentile 0.99 round_ms, "ms");
    ("setup_s", setup_s, "s");
    ("heap_peak_mb", heap_mb, "MiB");
  ]

let per_layer tr (untraced : (W.rep * gc) list) (traced : W.rep list) =
  let reps = List.map fst untraced and gcs = List.map snd untraced in
  let first = List.hd reps in
  let n_traced = fi (List.length traced) in
  let traced_wall = sum (List.map (fun (r : W.rep) -> r.W.wall) traced) in
  let mismatched =
    List.filter (fun (r : W.rep) -> r.W.units <> first.W.units) traced
  in
  (match mismatched with
  | r :: _ ->
      line "WORK MISMATCH: traced runner %s; runner %s"
        (Work.to_string r.W.work) (Work.to_string first.W.work)
  | [] -> ());
  let calls l = fi (L.calls tr l) in
  let factor = Rs.median (List.map (fun (r : W.rep) -> Host.factor r.W.probes) traced) in
  let layers =
    List.concat_map
      (fun l ->
        let n = L.name l in
        [
          (n ^ ".self_s", L.self_s tr l *. factor /. n_traced, "s");
          (n ^ ".share", ratio (L.self_s tr l) traced_wall, "frac");
          (n ^ ".calls", calls l /. n_traced, "count");
        ])
      L.layers
  in
  let checks = fi (sumi (fun (r : W.rep) -> r.W.work.Work.checks) reps) in
  layers
  @ [
      ("gen_query.retry_frac", ratio (fi tr.L.synth_errors) (calls L.Gen_query), "frac");
      ("engine.write.error_frac", ratio (fi tr.L.write_errors) (calls L.Engine_write), "frac");
      ( "engine.query.rows_scanned_per_check",
        ratio (fi tr.L.rows_scanned) (calls L.Engine_query), "rows/check" );
      ( "engine.query.btree_visits_per_check",
        ratio (fi tr.L.btree_visits) (calls L.Engine_query), "nodes/check" );
      ("ground_truth.reject_frac", ratio (fi tr.L.gt_rejects) (calls L.Ground_truth), "frac");
      ( "gc.minor_words_per_check",
        ratio (sum (List.map (fun g -> g.minor_words) gcs)) checks, "words/check" );
      ( "gc.major_collections",
        fi (sumi (fun g -> g.major_collections) gcs) /. fi (List.length gcs), "count" );
      ("trace.unattributed_frac", 1. -. ratio (L.total_self_s tr) traced_wall, "frac");
      ( "trace.overhead_frac",
        ratio (Rs.median (List.map scaled traced)) (Rs.median (List.map scaled reps)) -. 1.,
        "frac" );
      ( "trace.work_match",
        1. -. ratio (fi (List.length mismatched)) n_traced, "frac" );
    ]

(* Self times of the layers only some workloads run: they read exactly 0
   on the others, so they stay in the readable report and out of the JSON
   result (their share and calls are in both). *)
let readable_only =
  List.map
    (fun l -> L.name l ^ ".self_s")
    [ L.Oracle_plan_diff; L.Oracle_const_opt; L.Ground_truth ]

let run (w : W.t) ~seed ~seconds ~trace ~setup_s =
  W.setup_round w 0;
  let tr = L.create () in
  let untraced = ref [] and traced = ref [] and heap_mb = ref 0. in
  let deadline = now () +. seconds in
  (* at least three repetitions, so that the median ignores one slowed by
     a burst of load on the host (with two, such a burst moved
     mixed-default's round_p99_ms by up to 50%); after that, another only
     if it should end by the deadline, going by the last one, so a run
     does not overshoot by most of a repetition *)
  let rec loop n =
    let t0 = now () in
    untraced := gc_delta (fun () -> W.untraced w) :: !untraced;
    (* the peak after one repetition: a fixed amount of work, so the figure
       does not grow with the length of the run *)
    if n = 1 then
      heap_mb :=
        fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.;
    if trace then traced := W.traced tr w :: !traced;
    let t1 = now () in
    if n < 3 || t1 +. (t1 -. t0) <= deadline then loop (n + 1)
  in
  loop 1;
  let heap_mb = !heap_mb in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let reps = List.map fst untraced in
  let first = List.hd reps in
  line "workload %s, seed %d: %d repetitions of %d rounds%s" w.W.name seed
    (List.length reps) first.W.work.Work.rounds
    (if trace then Printf.sprintf " (+ %d traced)" (List.length traced) else "");
  let deterministic =
    List.for_all (fun (r : W.rep) -> r.W.units = first.W.units) reps
  in
  if not deterministic then
    line "NONDETERMINISTIC: repetitions of seed %d did different work" seed;
  (* a report on a bug-free engine is a false positive: its round counts as
     failed, like a ground-truth rejection *)
  if w.W.bug_free then
    List.iter
      (fun (s, o, m) -> line "FALSE REPORT on a bug-free engine: seed %d %s: %s" s o m)
      first.W.work.Work.reports;
  let failed = List.filter (W.failed w) first.W.rounds in
  line "fail_frac %.6f (%d of %d rounds per repetition%s)"
    (ratio (fi (List.length failed)) (fi first.W.work.Work.rounds))
    (List.length failed) first.W.work.Work.rounds
    (String.concat ""
       (List.map (fun (r : W.round) -> Printf.sprintf " %s:%d" r.W.label r.W.seed) failed));
  let hunt_ok =
    hunt_summary w first ~sweep_s:(Rs.median (List.map scaled reps)) ~seed
  in
  let metrics =
    if trace then per_layer tr untraced traced
    else end_to_end reps ~setup_s ~heap_mb
  in
  List.iter (fun (n, v, u) -> line "%-40s %14.6g %s" n v u) metrics;
  (* [attempted] and [failed] count the rounds of one repetition: every
     repetition runs the same rounds (checked above), so the counts depend
     on the seed alone, not on how many repetitions fit in the run *)
  print_endline
    (Rs.to_line
       {
         Rs.correct = deterministic && hunt_ok;
         attempted = first.W.work.Work.rounds;
         failed = List.length failed;
         metrics =
           List.filter_map
             (fun (n, value, unit_) ->
               if List.mem n readable_only then None
               else Some (n, { Rs.value; unit_ }))
             metrics;
       })

let compare bench base next =
  let ( let* ) = Result.bind in
  let runs path = Result.bind (Rs.read_file path) Rs.of_lines in
  match
    let* specs = Result.bind (Rs.read_file bench) Rs.specs_of_benchmark in
    let* base = runs base in
    let* next =
      match next with
      | None -> Ok None
      | Some p -> Result.map Option.some (runs p)
    in
    Ok (specs, base, next)
  with
  | Error e ->
      prerr_endline ("compare: " ^ e);
      2
  | Ok (specs, base, next) ->
      let rows = Rs.compare_runs specs ~base ?next () in
      List.iter
        (fun (r : Rs.row) ->
          line "%-40s median %12.6g %-8s spread %6.3f%s%s%s" r.Rs.spec.Rs.name
            r.Rs.base_median r.Rs.spec.Rs.unit_ r.Rs.base_spread
            (match r.Rs.spec.Rs.bound with
            | Some b -> Printf.sprintf " bound %.2f" b
            | None -> "")
            (match r.Rs.next with
            | Some (s, worse) ->
                Printf.sprintf " | next spread %6.3f worse by %+.3f" s worse
            | None -> "")
            (if r.Rs.ok then "" else "  FAIL"))
        rows;
      let all_correct =
        List.for_all (fun r -> r.Rs.correct) (base @ Option.value next ~default:[])
      in
      if not all_correct then line "some runs were not correct";
      if all_correct && List.for_all (fun r -> r.Rs.ok) rows then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and setup_s = ref 0. and spawned_at = ref 0 in
  let round = ref 0 in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced runner");
      ("--setup-s", Arg.Set_float setup_s, "X set-up time measured by run.py");
      ("--spawned-at", Arg.Set_int spawned_at, "NS monotonic spawn time (setup)");
      ("--round", Arg.Set_int round, "I set-up round (setup, default 0)");
    ]
  in
  Arg.parse spec (fun a -> anon := a :: !anon) "main.exe run|setup|compare ...";
  let workload () =
    match W.make !workload ~seed:!seed with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " W.names);
        exit 2
  in
  exit
    (match List.rev !anon with
    | [ "run" ] ->
        run (workload ()) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~setup_s:!setup_s;
        0
    | [ "setup" ] ->
        (* set-up time: from the spawn [run.py] stamped to the end of the
           first round, on the same monotonic clock, scaled to the
           reference host like every other time *)
        W.setup_round (workload ()) !round;
        let setup = fi (Telemetry.Clock.now_ns_int () - !spawned_at) *. 1e-9 in
        line "%.9f" (setup *. Host.factor (List.init 30 (fun _ -> Host.chunk ())));
        0
    | [ "compare"; bench; base ] -> compare bench base None
    | [ "compare"; bench; base; next ] -> compare bench base (Some next)
    | _ ->
        prerr_endline "usage: main.exe run|setup|compare ...";
        2)

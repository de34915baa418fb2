(* The benchmark's workloads and one repetition of each, run either by the
   program itself ([Campaign.run ~domains:1], the [Runner.run] loop) or by
   the traced runner ([Mirror]).  Every workload is a closed loop with one
   client: a PQS worker waits for each statement before it generates the
   next, so one process on one domain issues all of the work.  A
   repetition is a fixed unit of work derived from the workload seed, so
   every repetition of a run does identical work. *)

open Sqlval
module R = Pqs.Runner

type kind =
  | Campaign of { configs : R.config list; seed_lo : int; seed_hi : int }
      (** each config over the database seeds [\[seed_lo, seed_hi)] *)
  | Hunt of { cap : int; hunts : (Engine.Bug.t * R.config) list }
      (** a [Runner.run ~stop_on_first:true] hunt per bug, [cap] checks *)

type t = { name : string; kind : kind; bug_free : bool }

let names = [ "mixed-default"; "join-scan"; "write-churn"; "catalog-hunt" ]

(* database rounds per config in one repetition, sized so the tail of the
   round times is steady from seed to seed while a 15-second run still
   repeats the work; the test shrinks them *)
let default_rounds = function
  | "mixed-default" -> 1200
  | "join-scan" -> 1000
  | "write-churn" -> 4000
  | _ -> 0

let default_cap = 4000

let campaign ~seed ~rounds configs =
  (* disjoint seed ranges for distinct workload seeds *)
  let seed_lo = 1 + (seed * 100_000) in
  Campaign { configs; seed_lo; seed_hi = seed_lo + rounds }

let make ?rounds ?(cap = default_cap) name ~seed =
  let rounds = Option.value rounds ~default:(default_rounds name) in
  let bug_free kind = Some { name; kind; bug_free = true } in
  match name with
  | "mixed-default" ->
      (* the paper's Figure-1 loop at SQLancer's settings, every dialect:
         query execution dominates and query synthesis is large *)
      bug_free
        (campaign ~seed ~rounds (List.map (fun d -> R.Config.make d) Dialect.all))
  | "join-scan" ->
      (* cross-product scans and forced-plan re-execution, little
         generation: the read path *)
      bug_free
        (campaign ~seed ~rounds
           [
             R.Config.make ~table_count:3 ~max_rows:30
               ~oracles:(Pqs.Oracle.defaults @ [ Pqs.Plan_diff.oracle () ])
               Dialect.Sqlite_like;
           ])
  | "write-churn" ->
      (* DDL, DML and index maintenance: the write side of the storage *)
      bug_free
        (campaign ~seed ~rounds
           [
             R.Config.make ~extra_statements:64 ~max_rows:20 ~pivots_per_db:1
               ~queries_per_pivot:2 Dialect.Mysql_like;
           ])
  | "catalog-hunt" ->
      (* findings, ground-truth replay and reports: a stop-on-first hunt
         per injected bug.  Each hunt gets its own seed: with one shared
         seed every hunt of a dialect replays the same first databases, so
         a sweep's cost would hang on a few dozen of them. *)
      let oracles =
        Pqs.Oracle.defaults
        @ [ Pqs.Const_opt.oracle (); Pqs.Plan_diff.oracle () ]
      in
      let hunts =
        List.mapi
          (fun i bug ->
            ( bug,
              R.Config.make
                ~seed:((seed * 1000) + i)
                ~bugs:(Engine.Bug.singleton bug)
                ~oracles (Engine.Bug.info bug).Engine.Bug.dialect ))
          Engine.Bug.all
      in
      Some { name; kind = Hunt { cap; hunts }; bug_free = false }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)

type round = {
  label : string;  (** the round's dialect, or the bug it hunts *)
  seed : int;
  wall : float;
  work : Work.t;
  block : int;  (** the block of the repetition it ran in *)
}

type rep = {
  work : Work.t;  (** the whole repetition *)
  units : Work.t list;  (** per campaign config, or per hunted bug *)
  rounds : round list;
  wall : float;  (** wall seconds of the repetition, host probes excluded *)
  blocks : float list;  (** wall seconds of each block, in order *)
  probes : float list;  (** the {!Host.chunk} time taken after each block *)
}

let now () = Telemetry.Clock.now ()

(* A round fails if the ground-truth replay rejected one of its checks,
   or if it reported on a bug-free workload.  A round that raises aborts
   the run. *)
let failed w (r : round) =
  r.work.Work.false_positives > 0 || (w.bug_free && r.work.Work.reports <> [])

(* [Runner.run ~stop_on_first:true]'s loop: database seeds
   [seed + i * 7919] until [cap] checks, [max 50 cap] rounds, or the first
   report *)
let hunt_loop ~cap (config : R.config) round =
  let max_databases = max 50 cap in
  let rec go acc i =
    if acc.Work.checks >= cap || acc.Work.rounds >= max_databases then acc
    else
      let w = round ~db_seed:(config.R.Config.seed + (i * 7919)) in
      let acc = Work.add acc w in
      if w.Work.reports <> [] then acc else go acc (i + 1)
  in
  go Work.empty 0

(* One repetition, in blocks of {!Host.block} rounds with a host probe
   after each.  [campaign c ~seed_lo ~seed_hi timed] runs one block of a
   campaign config and returns its work and rounds; [round_work c ~db_seed]
   runs one round of a hunt.  [timed] times a round. *)
let repeat w ~campaign ~round_work =
  let rounds = ref [] and blocks = ref [] and probes = ref [] in
  let n_blocks = ref 0 and block_t0 = ref (now ()) in
  let probe () =
    blocks := (now () -. !block_t0) :: !blocks;
    probes := Host.chunk () :: !probes;
    incr n_blocks;
    block_t0 := now ()
  in
  let timed label run ~db_seed =
    let t0 = now () in
    let work = run ~db_seed in
    rounds :=
      { label; seed = db_seed; wall = now () -. t0; work; block = !n_blocks }
      :: !rounds;
    work
  in
  let units =
    match w.kind with
    | Campaign { configs; seed_lo; seed_hi } ->
        List.map
          (fun (c : R.config) ->
            let rec blocks acc lo =
              if lo >= seed_hi then acc
              else
                let hi = min seed_hi (lo + Host.block) in
                let work, block_rounds = campaign c ~seed_lo:lo ~seed_hi:hi timed in
                rounds :=
                  List.fold_left
                    (fun acc r -> { r with block = !n_blocks } :: acc)
                    !rounds block_rounds;
                probe ();
                blocks (Work.add acc work) hi
            in
            blocks Work.empty seed_lo)
          configs
    | Hunt { cap; hunts } ->
        let since_probe = ref 0 in
        let units =
          List.map
            (fun (bug, c) ->
              let run = timed (Engine.Bug.show bug) (round_work c) in
              hunt_loop ~cap c (fun ~db_seed ->
                  let work = run ~db_seed in
                  incr since_probe;
                  if !since_probe = Host.block then begin
                    since_probe := 0;
                    probe ()
                  end;
                  work))
            hunts
        in
        if !since_probe > 0 then probe ();
        units
  in
  let blocks = List.rev !blocks in
  {
    work = List.fold_left Work.add Work.empty units;
    units;
    rounds = List.rev !rounds;
    wall = List.fold_left ( +. ) 0. blocks;
    blocks;
    probes = List.rev !probes;
  }

(* The program's own path: [Campaign.run ~domains:1] per block of a
   campaign config, its outcomes giving each round's wall time;
   [Runner.run_round] in [Runner.run]'s loop per hunted bug, timed here. *)
let untraced w =
  let campaign c ~seed_lo ~seed_hi _timed =
    let result = Pqs.Campaign.run ~domains:1 ~seed_lo ~seed_hi c in
    let label = Dialect.name c.R.Config.dialect in
    ( Work.of_stats result.Pqs.Campaign.stats,
      List.map
        (fun (o : Pqs.Campaign.outcome) ->
          {
            label;
            seed = o.Pqs.Campaign.seed;
            wall = o.Pqs.Campaign.wall;
            work = Work.of_stats o.Pqs.Campaign.round;
            block = 0 (* set by [repeat] *);
          })
        result.Pqs.Campaign.outcomes )
  in
  let round_work c =
    let recorder = R.recorder_for c and bias = ref Frontier.empty in
    fun ~db_seed -> Work.of_stats (R.run_round ~recorder ~bias c ~db_seed)
  in
  repeat w ~campaign ~round_work

(* The same seeds through the traced runner.  One registry per repetition
   collects the engine's scan counters. *)
let traced tr w =
  let reg = Telemetry.create () in
  let round_work (c : R.config) =
    let oracles = Mirror.traced_oracles tr c.R.Config.oracles in
    Mirror.run_round tr ~reg ~oracles c
  in
  let campaign c ~seed_lo ~seed_hi timed =
    let run = round_work c and label = Dialect.name c.R.Config.dialect in
    let work =
      List.fold_left
        (fun acc db_seed -> Work.add acc (timed label run ~db_seed))
        Work.empty
        (List.init (seed_hi - seed_lo) (fun i -> seed_lo + i))
    in
    (work, [])
  in
  repeat w ~campaign ~round_work

(* Set-up round [i] of the workload, untimed: what set-up ends with.
   Round 0 is the first round of the workload; the others are later
   databases (and configs, or hunts), so that set-up timed over several
   rounds is not the cost of one database. *)
let setup_round w i =
  match w.kind with
  | Campaign { configs = _ :: _ as cs; seed_lo; _ } ->
      let c = List.nth cs (i mod List.length cs) in
      ignore
        (Pqs.Campaign.run ~domains:1 ~seed_lo:(seed_lo + i)
           ~seed_hi:(seed_lo + i + 1) c)
  | Hunt { hunts = _ :: _ as hs; _ } ->
      let _, c = List.nth hs (i mod List.length hs) in
      ignore (R.run_round c ~db_seed:c.R.Config.seed)
  | Campaign { configs = []; _ } | Hunt { hunts = []; _ } -> ()

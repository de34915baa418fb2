(* The work one repetition of a workload did, as counted by the runner's
   [Stats]: the counters two executions of the same configs and seeds must
   agree on.  The traced runner fills the same record, so comparing the
   two shows whether it still mirrors [Runner.run_round]. *)

type t = {
  rounds : int;
  statements : int;
  checks : int;
  negative_checks : int;
  interp_failures : int;
  false_positives : int;
  reports : (int * string * string) list;
      (** (database seed, oracle token, message), chronological *)
}

let empty =
  {
    rounds = 0;
    statements = 0;
    checks = 0;
    negative_checks = 0;
    interp_failures = 0;
    false_positives = 0;
    reports = [];
  }

let add a b =
  {
    rounds = a.rounds + b.rounds;
    statements = a.statements + b.statements;
    checks = a.checks + b.checks;
    negative_checks = a.negative_checks + b.negative_checks;
    interp_failures = a.interp_failures + b.interp_failures;
    false_positives = a.false_positives + b.false_positives;
    reports = a.reports @ b.reports;
  }

let of_stats (s : Pqs.Stats.t) =
  {
    rounds = s.Pqs.Stats.databases;
    statements = s.Pqs.Stats.statements;
    checks = s.Pqs.Stats.queries;
    negative_checks = s.Pqs.Stats.negative_checks;
    interp_failures = s.Pqs.Stats.interp_failures;
    false_positives = s.Pqs.Stats.false_positives;
    reports =
      List.map
        (fun (r : Pqs.Bug_report.t) ->
          ( r.Pqs.Bug_report.seed,
            Pqs.Bug_report.oracle_token r.Pqs.Bug_report.oracle,
            r.Pqs.Bug_report.message ))
        s.Pqs.Stats.reports;
  }

let equal (a : t) (b : t) = a = b

let to_string w =
  Printf.sprintf
    "rounds=%d statements=%d checks=%d negative=%d interp_failures=%d \
     false_positives=%d reports=%d"
    w.rounds w.statements w.checks w.negative_checks w.interp_failures
    w.false_positives (List.length w.reports)

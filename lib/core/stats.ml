open Sqlval

type t = {
  databases : int;
  pivots : int;
  queries : int;
  statements : int;
  interp_failures : int;
  false_positives : int;
  reports : Bug_report.t list;
  truth_values : (Tvl.t * int) list;
  negative_checks : int;
  plan_checks : int;
  plan_divergences : int;
  const_checks : int;
  const_divergences : int;
  frontier : Frontier.t;
}

(* truth_values is kept on the canonical key set so that [merge] is
   associative and [empty] an exact identity on every reachable value *)
let canonical_truths = [ Tvl.True; Tvl.False; Tvl.Unknown ]

let truth_count tv t =
  match List.assoc_opt t tv with Some n -> n | None -> 0

let canonical_truth_values tv =
  List.map (fun t -> (t, truth_count tv t)) canonical_truths

let empty =
  {
    databases = 0;
    pivots = 0;
    queries = 0;
    statements = 0;
    interp_failures = 0;
    false_positives = 0;
    reports = [];
    truth_values = canonical_truth_values [];
    negative_checks = 0;
    plan_checks = 0;
    plan_divergences = 0;
    const_checks = 0;
    const_divergences = 0;
    frontier = Frontier.empty;
  }

let merge a b =
  {
    databases = a.databases + b.databases;
    pivots = a.pivots + b.pivots;
    queries = a.queries + b.queries;
    statements = a.statements + b.statements;
    interp_failures = a.interp_failures + b.interp_failures;
    false_positives = a.false_positives + b.false_positives;
    reports = a.reports @ b.reports;
    truth_values =
      List.map
        (fun t -> (t, truth_count a.truth_values t + truth_count b.truth_values t))
        canonical_truths;
    negative_checks = a.negative_checks + b.negative_checks;
    plan_checks = a.plan_checks + b.plan_checks;
    plan_divergences = a.plan_divergences + b.plan_divergences;
    const_checks = a.const_checks + b.const_checks;
    const_divergences = a.const_divergences + b.const_divergences;
    frontier = Frontier.union a.frontier b.frontier;
  }

let merge_all = List.fold_left merge empty
let add_report t r = { t with reports = t.reports @ [ r ] }

let bump_truth t truth =
  {
    t with
    truth_values =
      List.map
        (fun (t', n) -> if Tvl.equal truth t' then (t', n + 1) else (t', n))
        t.truth_values;
  }

let summary t =
  Printf.sprintf
    "databases=%d pivots=%d containment-checks=%d statements=%d \
     interp-failures=%d false-positives=%d negative-checks=%d \
     plan-checks=%d plan-divergences=%d const-checks=%d const-divergences=%d frontier-points=%d findings=%d"
    t.databases t.pivots t.queries t.statements t.interp_failures
    t.false_positives t.negative_checks t.plan_checks t.plan_divergences t.const_checks t.const_divergences
    (Frontier.cardinal t.frontier)
    (List.length t.reports)

let pp fmt t = Format.pp_print_string fmt (summary t)

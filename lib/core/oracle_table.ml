type recheck =
  | Not_recheckable
  | Replay_outcome
  | Custom of
      (dialect:Sqlval.Dialect.t ->
      bugs:Engine.Bug.set ->
      Sqlast.Ast.stmt list ->
      bool)

type entry = {
  name : string;
  doc : string;
  flag : string option;
  default : bool;
  kinds : Bug_report.oracle list;
  make : unit -> Oracle.t;
  recheck : recheck;
}

let all =
  [
    (* the paper's trio is always on and rechecks by replaying the script *)
    {
      name = "error";
      doc = "any statement error outside the expected-errors whitelist";
      flag = None;
      default = true;
      kinds = [ Bug_report.Error_oracle ];
      make = (fun () -> Oracle.error_oracle);
      recheck = Replay_outcome;
    };
    {
      name = "crash";
      doc = "simulated engine SEGFAULTs";
      flag = None;
      default = true;
      kinds = [ Bug_report.Crash ];
      make = (fun () -> Oracle.crash_oracle);
      recheck = Replay_outcome;
    };
    {
      name = "containment";
      doc = "pivot-row containment, both polarities (paper steps 6-7)";
      flag = None;
      default = true;
      kinds = [ Bug_report.Containment; Bug_report.Non_containment ];
      make = (fun () -> Oracle.containment);
      recheck = Replay_outcome;
    };
    {
      name = "metamorphic";
      doc = "add the metamorphic aggregate-partition oracle";
      flag = Some "metamorphic";
      default = false;
      kinds = [ Bug_report.Metamorphic ];
      make = (fun () -> Oracle.metamorphic ());
      (* the violated partition relation cannot be re-checked from the
         statement list alone *)
      recheck = Not_recheckable;
    };
    {
      name = "plan_diff";
      doc =
        "add the plan-space differential oracle: re-execute every \
         containment query under each enumerable access plan and \
         cross-check the result multisets";
      flag = Some "plan-diff";
      default = false;
      kinds = [ Bug_report.Plan_diff ];
      make = (fun () -> Plan_diff.oracle ());
      recheck = Custom Plan_diff.recheck;
    };
    {
      name = "const_opt";
      doc =
        "add the constant-optimization (CODDTest) oracle: fold the pivot \
         row's values into each positive containment query as constants, \
         simplify, and require the pivot row to survive";
      flag = Some "const-opt";
      default = false;
      kinds = [ Bug_report.Const_opt ];
      make = (fun () -> Const_opt.oracle ());
      recheck = Custom Const_opt.recheck;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let find_kind kind =
  List.find_opt
    (fun e -> List.exists (Bug_report.equal_oracle kind) e.kinds)
    all

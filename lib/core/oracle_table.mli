(** The oracle table: one immutable entry per oracle, mapping its stable
    name to its constructor, documentation, CLI flag, report kinds and
    reduction-recheck strategy.  The CLI's oracle flags and
    [list-oracles], the reducer's manifestation checks and the replay
    harness's recheckability all read it, so adding an oracle means
    adding one entry here. *)

(** How a report of this oracle is re-checked when the reducer shrinks
    its statement list (see [Reducer.manifestation_check]). *)
type recheck =
  | Not_recheckable
      (** the verdict is not re-derivable from the statement list alone
          (metamorphic); reduction is a no-op and replay trusts the
          bundle *)
  | Replay_outcome
      (** re-run the script and decide from the replay outcome (crash /
          unexpected error / final SELECT row count vs ground truth) *)
  | Custom of
      (dialect:Sqlval.Dialect.t ->
      bugs:Engine.Bug.set ->
      Sqlast.Ast.stmt list ->
      bool)  (** oracle-specific recheck (plan-diff re-runs all plans) *)

type entry = {
  name : string;  (** stable identifier, e.g. ["plan_diff"] *)
  doc : string;  (** one-line description (also the CLI flag doc) *)
  flag : string option;
      (** CLI flag that adds the oracle to a run ([--metamorphic],
          [--plan-diff], [--const-opt]); [None] for always-on defaults *)
  default : bool;  (** member of [Oracle.defaults] *)
  kinds : Bug_report.oracle list;
      (** report kinds this oracle emits (containment covers both
          polarities) *)
  make : unit -> Oracle.t;  (** fresh instance with default parameters *)
  recheck : recheck;
}

(** Every oracle, in display order. *)
val all : entry list

val find : string -> entry option

(** The entry whose [kinds] contains the report kind. *)
val find_kind : Bug_report.oracle -> entry option

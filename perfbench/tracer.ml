(* Spans recorded from outside the program, around the calls the traced
   runner makes into each layer.  A span's self time is its duration minus
   the part its child spans cover; only per-layer totals are kept, so
   tracing allocates nothing per span beyond the closure it times. *)

type layer =
  | Session
  | Gen_db
  | Engine_write
  | Schema_info
  | Gen_query
  | Frontier
  | Engine_query
  | Oracle_error
  | Oracle_crash
  | Oracle_containment
  | Oracle_plan_diff
  | Oracle_const_opt
  | Ground_truth

let layers =
  [
    Session; Gen_db; Engine_write; Schema_info; Gen_query; Frontier;
    Engine_query; Oracle_error; Oracle_crash; Oracle_containment;
    Oracle_plan_diff; Oracle_const_opt; Ground_truth;
  ]

let index = function
  | Session -> 0
  | Gen_db -> 1
  | Engine_write -> 2
  | Schema_info -> 3
  | Gen_query -> 4
  | Frontier -> 5
  | Engine_query -> 6
  | Oracle_error -> 7
  | Oracle_crash -> 8
  | Oracle_containment -> 9
  | Oracle_plan_diff -> 10
  | Oracle_const_opt -> 11
  | Ground_truth -> 12

let name = function
  | Session -> "session"
  | Gen_db -> "gen_db"
  | Engine_write -> "engine.write"
  | Schema_info -> "schema_info"
  | Gen_query -> "gen_query"
  | Frontier -> "frontier"
  | Engine_query -> "engine.query"
  | Oracle_error -> "oracle.error"
  | Oracle_crash -> "oracle.crash"
  | Oracle_containment -> "oracle.containment"
  | Oracle_plan_diff -> "oracle.plan_diff"
  | Oracle_const_opt -> "oracle.const_opt"
  | Ground_truth -> "ground_truth"

(* the oracle layer of a runner oracle, by the name the runner itself
   switches on *)
let of_oracle_name = function
  | "error" -> Oracle_error
  | "crash" -> Oracle_crash
  | "containment" -> Oracle_containment
  | "plan_diff" -> Oracle_plan_diff
  | "const_opt" -> Oracle_const_opt
  | other -> invalid_arg ("Tracer.of_oracle_name: untraced oracle " ^ other)

type t = {
  self_ns : int array;
  calls : int array;
  mutable child_ns : int;  (** time covered by child spans of the open span *)
  mutable synth_errors : int;  (** [Gen_query.synthesize] returned [Error] *)
  mutable write_errors : int;  (** generation statements that failed *)
  mutable gt_rejects : int;  (** ground-truth replays that disagreed *)
  mutable rows_scanned : int;  (** inside [Engine_query] spans *)
  mutable btree_visits : int;  (** inside [Engine_query] spans *)
}

let create () =
  {
    self_ns = Array.make (List.length layers) 0;
    calls = Array.make (List.length layers) 0;
    child_ns = 0;
    synth_errors = 0;
    write_errors = 0;
    gt_rejects = 0;
    rows_scanned = 0;
    btree_visits = 0;
  }

let now = Telemetry.Clock.now_ns_int

let span t layer f =
  let i = index layer in
  let outer_child = t.child_ns in
  t.child_ns <- 0;
  let t0 = now () in
  let finish () =
    let d = now () - t0 in
    t.self_ns.(i) <- t.self_ns.(i) + d - t.child_ns;
    t.calls.(i) <- t.calls.(i) + 1;
    t.child_ns <- outer_child + d
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let self_s t layer = float_of_int t.self_ns.(index layer) *. 1e-9
let calls t layer = t.calls.(index layer)
let total_self_s t = float_of_int (Array.fold_left ( + ) 0 t.self_ns) *. 1e-9

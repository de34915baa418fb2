(* The benchmark's result line, its reader, and the spread and bounds check
   over sets of result lines.  Every reader here is total: truncated or
   garbled input is an [Error], never an exception. *)

module J = Fleet.Json

type metric = { value : float; unit_ : string }

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * metric) list;
}

(* every digit of the measured value; integral counts print as integers *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_line r =
  let metric (name, m) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (J.quote name)
      (number m.value) (J.quote m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let ( let* ) = Result.bind

let field name conv v =
  match Option.bind (J.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or ill-typed %S" name)

let fields = function J.Obj kvs -> Ok kvs | _ -> Error "expected an object"

let rec all_ok f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = all_ok f rest in
      Ok (y :: ys)

let of_line line =
  let* v = J.parse line in
  let* correct = field "correct" J.to_bool v in
  let* attempted = field "attempted" J.to_int v in
  let* failed = field "failed" J.to_int v in
  let* ms = field "metrics" (fun m -> Result.to_option (fields m)) v in
  let* metrics =
    all_ok
      (fun (name, m) ->
        let* value = field "value" J.to_float m in
        let* unit_ = field "unit" J.to_str m in
        Ok (name, { value; unit_ }))
      ms
  in
  Ok { correct; attempted; failed; metrics }

(* one result line per run; blank lines are skipped *)
let of_lines contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "")
  |> all_ok (fun (i, l) ->
         Result.map_error (Printf.sprintf "line %d: %s" i) (of_line l))

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let spec_of_json ~bounded v =
  let* name = field "name" J.to_str v in
  let* unit_ = field "unit" J.to_str v in
  let* better =
    match J.member "better" v with
    | Some (J.Str "lower") -> Ok Lower
    | Some (J.Str "higher") -> Ok Higher
    | _ -> Error (Printf.sprintf "%s: better must be lower or higher" name)
  in
  let* bound =
    if bounded then Result.map Option.some (field "bound" J.to_float v)
    else Ok None
  in
  Ok { name; unit_; better; bound }

let specs_of_benchmark contents =
  let* v = J.parse contents in
  let group key ~bounded =
    let* items = field key J.to_list v in
    all_ok (spec_of_json ~bounded) items
  in
  let* e2e = group "end_to_end" ~bounded:true in
  let* layers = group "per_layer" ~bounded:false in
  Ok (e2e @ layers)

(* ------------------------------------------------------------------ *)
(* Spread and bounds                                                   *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (the default, exclusive
   method); [None] below two values *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    Some (q 1, q 3)

(* interquartile distance as a share of the median *)
let spread xs =
  match quartiles xs with
  | None -> 0.
  | Some (q1, q3) -> (q3 -. q1) /. Float.abs (median xs)

(* how much worse [next] reads than [base], as a share of [base] *)
let worsening spec ~base ~next =
  let d = (next -. base) /. Float.abs base in
  match spec.better with Lower -> d | Higher -> -.d

let values name runs =
  List.filter_map
    (fun r -> Option.map (fun m -> m.value) (List.assoc_opt name r.metrics))
    runs

type row = {
  spec : spec;
  base_median : float;
  base_spread : float;
  next : (float * float) option;
      (** the second set's spread, and how much worse its median reads *)
  ok : bool;
}

(* One row per metric present in [base].  A bounded metric is ok when the
   spread of each set stays within its bound ([setup_s]'s spread is exempt)
   and the second set's median is not worse by more than the bound. *)
let compare_runs specs ~base ?next () =
  List.filter_map
    (fun spec ->
      match values spec.name base with
      | [] -> None
      | xs ->
          let base_median = median xs and base_spread = spread xs in
          let next =
            Option.bind next (fun runs ->
                match values spec.name runs with
                | [] -> None
                | ys ->
                    Some
                      ( spread ys,
                        worsening spec ~base:base_median ~next:(median ys) ))
          in
          let ok =
            match spec.bound with
            | None -> true
            | Some bound -> (
                let steady s = spec.name = "setup_s" || s <= bound in
                steady base_spread
                &&
                match next with
                | Some (s, worse) -> steady s && worse <= bound
                | None -> true)
          in
          Some { spec; base_median; base_spread; next; ok })
    specs

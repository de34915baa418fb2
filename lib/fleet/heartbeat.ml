open Sqlval

type counters = {
  databases : int;
  pivots : int;
  queries : int;
  statements : int;
  interp_failures : int;
  false_positives : int;
  negative_checks : int;
  plan_checks : int;
  plan_divergences : int;
  const_checks : int;
  const_divergences : int;
  truth_true : int;
  truth_false : int;
  truth_unknown : int;
}

let zero_counters =
  {
    databases = 0;
    pivots = 0;
    queries = 0;
    statements = 0;
    interp_failures = 0;
    false_positives = 0;
    negative_checks = 0;
    plan_checks = 0;
    plan_divergences = 0;
    const_checks = 0;
    const_divergences = 0;
    truth_true = 0;
    truth_false = 0;
    truth_unknown = 0;
  }

let truth_count tv (s : Pqs.Stats.t) =
  match List.assoc_opt tv s.Pqs.Stats.truth_values with
  | Some n -> n
  | None -> 0

let counters_of_stats (s : Pqs.Stats.t) =
  {
    databases = s.Pqs.Stats.databases;
    pivots = s.Pqs.Stats.pivots;
    queries = s.Pqs.Stats.queries;
    statements = s.Pqs.Stats.statements;
    interp_failures = s.Pqs.Stats.interp_failures;
    false_positives = s.Pqs.Stats.false_positives;
    negative_checks = s.Pqs.Stats.negative_checks;
    plan_checks = s.Pqs.Stats.plan_checks;
    plan_divergences = s.Pqs.Stats.plan_divergences;
    const_checks = s.Pqs.Stats.const_checks;
    const_divergences = s.Pqs.Stats.const_divergences;
    truth_true = truth_count Tvl.True s;
    truth_false = truth_count Tvl.False s;
    truth_unknown = truth_count Tvl.Unknown s;
  }

let add_counters a b =
  {
    databases = a.databases + b.databases;
    pivots = a.pivots + b.pivots;
    queries = a.queries + b.queries;
    statements = a.statements + b.statements;
    interp_failures = a.interp_failures + b.interp_failures;
    false_positives = a.false_positives + b.false_positives;
    negative_checks = a.negative_checks + b.negative_checks;
    plan_checks = a.plan_checks + b.plan_checks;
    plan_divergences = a.plan_divergences + b.plan_divergences;
    const_checks = a.const_checks + b.const_checks;
    const_divergences = a.const_divergences + b.const_divergences;
    truth_true = a.truth_true + b.truth_true;
    truth_false = a.truth_false + b.truth_false;
    truth_unknown = a.truth_unknown + b.truth_unknown;
  }

(* the codec walks counters as a named field list so encode and decode
   can never drift from the record shape *)
let counter_fields c =
  [
    ("databases", c.databases);
    ("pivots", c.pivots);
    ("queries", c.queries);
    ("statements", c.statements);
    ("interp_failures", c.interp_failures);
    ("false_positives", c.false_positives);
    ("negative_checks", c.negative_checks);
    ("plan_checks", c.plan_checks);
    ("plan_divergences", c.plan_divergences);
    ("const_checks", c.const_checks);
    ("const_divergences", c.const_divergences);
    ("truth_true", c.truth_true);
    ("truth_false", c.truth_false);
    ("truth_unknown", c.truth_unknown);
  ]

let counters_of_json j =
  let get name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some n -> n
    | None -> 0
  in
  {
    databases = get "databases";
    pivots = get "pivots";
    queries = get "queries";
    statements = get "statements";
    interp_failures = get "interp_failures";
    false_positives = get "false_positives";
    negative_checks = get "negative_checks";
    plan_checks = get "plan_checks";
    plan_divergences = get "plan_divergences";
    const_checks = get "const_checks";
    const_divergences = get "const_divergences";
    truth_true = get "truth_true";
    truth_false = get "truth_false";
    truth_unknown = get "truth_unknown";
  }

type report_meta = {
  rm_fingerprint : string;
  rm_oracle : string;
  rm_seed : int;
  rm_bundle : string option;
}

type t = {
  version : int;
  shard : int;
  slot : int;
  seq : int;
  at : float;
  range_lo : int;
  range_hi : int;
  next_seed : int;
  rounds : int;
  rounds_per_sec : float;
  counters : counters;
  frontier : Frontier.t;
  reports : report_meta list;
  telemetry : Telemetry.sample list;
}

let current_version = 1

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let encode_telemetry_sample b (s : Telemetry.sample) =
  Buffer.add_string b "{\"name\":";
  Buffer.add_string b (Json.quote s.Telemetry.s_name);
  Buffer.add_string b ",\"labels\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.quote k);
      Buffer.add_char b ':';
      Buffer.add_string b (Json.quote v))
    s.Telemetry.s_labels;
  Buffer.add_string b "},";
  (match s.Telemetry.s_value with
  | Telemetry.Counter c ->
      Buffer.add_string b (Printf.sprintf "\"type\":\"counter\",\"value\":%d" c)
  | Telemetry.Gauge g ->
      Buffer.add_string b
        (Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (num g))
  | Telemetry.Histogram { buckets; sum; count } ->
      Buffer.add_string b
        (Printf.sprintf "\"type\":\"histogram\",\"sum\":%s,\"count\":%d,"
           (num sum) count);
      Buffer.add_string b "\"buckets\":[";
      List.iteri
        (fun i (le, cum) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"le\":%s,\"count\":%d}" (num le) cum))
        buckets;
      Buffer.add_char b ']');
  Buffer.add_char b '}'

let encode hb =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"heartbeat\",\"v\":%d,\"shard\":%d,\"slot\":%d,\
        \"seq\":%d,\"at\":%.3f,\"range\":[%d,%d],\"next\":%d,\
        \"rounds\":%d,\"rps\":%s"
       hb.version hb.shard hb.slot hb.seq hb.at hb.range_lo hb.range_hi
       hb.next_seed hb.rounds (num hb.rounds_per_sec));
  Buffer.add_string b ",\"stats\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (counter_fields hb.counters);
  Buffer.add_string b "},\"points\":[";
  List.iteri
    (fun i (p, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"p\":%s,\"h\":%d,\"s\":%d}" (Json.quote p)
           e.Frontier.hits e.Frontier.first_seed))
    (Frontier.points hb.frontier);
  Buffer.add_string b "],\"reports\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"fp\":%s,\"oracle\":%s,\"seed\":%d"
           (Json.quote r.rm_fingerprint)
           (Json.quote r.rm_oracle) r.rm_seed);
      (match r.rm_bundle with
      | Some path ->
          Buffer.add_string b (",\"bundle\":" ^ Json.quote path)
      | None -> ());
      Buffer.add_char b '}')
    hb.reports;
  Buffer.add_string b "],\"telemetry\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      encode_telemetry_sample b s)
    hb.telemetry;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "heartbeat: bad or missing field %S" name)

let decode_points j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"points\""
  | Some items ->
      let rec go acc = function
        | [] -> Ok (Frontier.of_entries (List.rev acc))
        | item :: rest -> (
            let p = Option.bind (Json.member "p" item) Json.to_str in
            let h = Option.bind (Json.member "h" item) Json.to_int in
            let s = Option.bind (Json.member "s" item) Json.to_int in
            match (p, h, s) with
            | Some p, Some hits, Some first_seed ->
                go ((p, { Frontier.hits; first_seed }) :: acc) rest
            | _ -> Error "heartbeat: malformed frontier point")
      in
      go [] items

let decode_reports j =
  match Option.bind (Json.member "reports" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"reports\""
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            let fp = Option.bind (Json.member "fp" item) Json.to_str in
            let oracle = Option.bind (Json.member "oracle" item) Json.to_str in
            let seed = Option.bind (Json.member "seed" item) Json.to_int in
            let bundle = Option.bind (Json.member "bundle" item) Json.to_str in
            match (fp, oracle, seed) with
            | Some rm_fingerprint, Some rm_oracle, Some rm_seed ->
                go
                  ({ rm_fingerprint; rm_oracle; rm_seed; rm_bundle = bundle }
                  :: acc)
                  rest
            | _ -> Error "heartbeat: malformed report entry")
      in
      go [] items

let decode_telemetry j =
  match Option.bind (Json.member "telemetry" j) Json.to_list with
  | None -> Error "heartbeat: bad or missing field \"telemetry\""
  | Some items ->
      let decode_labels item =
        match Json.member "labels" item with
        | Some (Json.Obj fields) ->
            let rec go acc = function
              | [] -> Some (List.rev acc)
              | (k, Json.Str v) :: rest -> go ((k, v) :: acc) rest
              | _ -> None
            in
            go [] fields
        | _ -> None
      in
      let decode_sample item =
        let* name =
          match Option.bind (Json.member "name" item) Json.to_str with
          | Some n -> Ok n
          | None -> Error "heartbeat: telemetry sample without name"
        in
        let* labels =
          match decode_labels item with
          | Some l -> Ok l
          | None -> Error "heartbeat: telemetry sample with bad labels"
        in
        let* value =
          match Option.bind (Json.member "type" item) Json.to_str with
          | Some "counter" -> (
              match Option.bind (Json.member "value" item) Json.to_int with
              | Some v -> Ok (Telemetry.Counter v)
              | None -> Error "heartbeat: bad counter value")
          | Some "gauge" -> (
              match Option.bind (Json.member "value" item) Json.to_float with
              | Some v -> Ok (Telemetry.Gauge v)
              | None -> Error "heartbeat: bad gauge value")
          | Some "histogram" -> (
              let sum = Option.bind (Json.member "sum" item) Json.to_float in
              let count = Option.bind (Json.member "count" item) Json.to_int in
              let buckets =
                Option.bind (Json.member "buckets" item) Json.to_list
                |> Option.map
                     (List.filter_map (fun bj ->
                          match
                            ( Option.bind (Json.member "le" bj) Json.to_float,
                              Option.bind (Json.member "count" bj) Json.to_int
                            )
                          with
                          | Some le, Some c -> Some (le, c)
                          | _ -> None))
              in
              match (sum, count, buckets) with
              | Some sum, Some count, Some buckets ->
                  Ok (Telemetry.Histogram { buckets; sum; count })
              | _ -> Error "heartbeat: bad histogram sample")
          | _ -> Error "heartbeat: telemetry sample with unknown type"
        in
        Ok { Telemetry.s_name = name; s_labels = labels; s_value = value }
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* s = decode_sample item in
            go (s :: acc) rest
      in
      go [] items

let decode line =
  let* j = Json.parse line in
  let* ty = field "type" Json.to_str j in
  if ty <> "heartbeat" then Error (Printf.sprintf "not a heartbeat: %S" ty)
  else
    let* version = field "v" Json.to_int j in
    if version > current_version then
      Error (Printf.sprintf "heartbeat: unsupported version %d" version)
    else
      let* shard = field "shard" Json.to_int j in
      let* slot = field "slot" Json.to_int j in
      let* seq = field "seq" Json.to_int j in
      let* at = field "at" Json.to_float j in
      let* range =
        match Option.bind (Json.member "range" j) Json.to_list with
        | Some [ lo; hi ] -> (
            match (Json.to_int lo, Json.to_int hi) with
            | Some lo, Some hi -> Ok (lo, hi)
            | _ -> Error "heartbeat: malformed range")
        | _ -> Error "heartbeat: bad or missing field \"range\""
      in
      let* next_seed = field "next" Json.to_int j in
      let* rounds = field "rounds" Json.to_int j in
      let* rounds_per_sec = field "rps" Json.to_float j in
      let* counters =
        match Json.member "stats" j with
        | Some stats -> Ok (counters_of_json stats)
        | None -> Error "heartbeat: bad or missing field \"stats\""
      in
      let* frontier = decode_points j in
      let* reports = decode_reports j in
      let* telemetry = decode_telemetry j in
      Ok
        {
          version;
          shard;
          slot;
          seq;
          at;
          range_lo = fst range;
          range_hi = snd range;
          next_seed;
          rounds;
          rounds_per_sec;
          counters;
          frontier;
          reports;
          telemetry;
        }

let equal_payload a b =
  a.counters = b.counters
  && Frontier.points a.frontier = Frontier.points b.frontier
  && List.sort compare a.reports = List.sort compare b.reports

(* The compiled execution backend's contract: observational equivalence
   with the tree-walking interpreter.

   - per-expression-kind closure compilation: every expression
     constructor (literals, columns, unary/binary operators, IS forms,
     BETWEEN, IN, LIKE/GLOB, CAST, functions, CASE, COLLATE, misused
     aggregates) produces the same value or the same error under both
     backends, as a projection, a WHERE predicate, an aggregate
     argument, a GROUP BY key and a HAVING condition, across dialects
     and with expression-level bugs injected;
   - views and aggregation: view expansion and GROUP BY / aggregate /
     HAVING shapes agree, with their injected defects on;
   - row identity: DISTINCT, UNION and GROUP BY keep rows apart that
     differ only inside their text;
   - coverage parity: a compiled run fires the identical coverage
     points with identical multiplicity;
   - 1,000-seed equivalence sweep: on generated databases the two
     backends return identical result multisets (columns, rows, order)
     for a battery of scans, filters, DISTINCT/ORDER BY/LIMIT
     pipelines, aggregates, GROUP BY/HAVING, views, compounds and
     VALUES;
   - campaign neutrality: [Runner.run_round] and [Campaign.run] produce
     identical statistics and identical bug reports whichever backend
     the config selects — for the bug-free engine and for every
     injected bug in the catalog;
   - backend API: name/of_name round-trips, session routing, and the
     compiled default running aggregates and views. *)

open Sqlval
module A = Sqlast.Ast
module Ex = Engine.Executor

let parse_sql sql =
  match Sqlparse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error e -> Alcotest.fail (Sqlparse.Parser.show_error e)

let exec session sql =
  match Engine.Session.execute session (parse_sql sql) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.Errors.show e)

(* a fixture with typed and collated columns, NULLs, negative and real
   values, and duplicate rows (DISTINCT fodder) *)
let fixture ?(bugs = Engine.Bug.empty_set) ?backend dialect =
  let session = Engine.Session.create ~bugs ?backend dialect in
  List.iter (exec session)
    [
      "CREATE TABLE t0(c0 INTEGER, c1 TEXT COLLATE NOCASE, c2 REAL, c3 TEXT)";
      "INSERT INTO t0(c0, c1, c2, c3) VALUES (1, 'Abc', 0.5, 'x%'), \
       (2, 'abc', -1.5, NULL), (NULL, 'zzz', 2.0, 'yy'), \
       (-3, NULL, 0.0, 'x%'), (2, 'abc', -1.5, NULL)";
      "CREATE TABLE t1(d0 INTEGER)";
      "INSERT INTO t1(d0) VALUES (1), (2), (4)";
    ];
  session

let show_result = function
  | Ok rs -> Format.asprintf "%a" Ex.pp_result_set rs
  | Error e -> "error: " ^ Engine.Errors.show e

(* observational equality of the two backends on one query; [compare]
   (not [=]) so NaN-carrying rows still count as equal *)
let same_result name ctx q =
  let run f =
    match f ctx q with
    | r -> r
    | exception Engine.Errors.Crash m ->
        Error (Engine.Errors.make Engine.Errors.Internal_error ("crash: " ^ m))
  in
  let a = run Ex.run_query in
  let b = run Engine.Compile.run_query in
  match (a, b) with
  | Ok ra, Ok rb ->
      if
        ra.Ex.rs_columns <> rb.Ex.rs_columns
        || Stdlib.compare ra.Ex.rs_rows rb.Ex.rs_rows <> 0
      then
        Alcotest.fail
          (Printf.sprintf "%s:\ninterpreted: %s\ncompiled: %s" name
             (show_result a) (show_result b))
  | Error ea, Error eb ->
      Alcotest.(check string) name (Engine.Errors.show ea)
        (Engine.Errors.show eb)
  | _ ->
      Alcotest.fail
        (Printf.sprintf "%s:\ninterpreted: %s\ncompiled: %s" name
           (show_result a) (show_result b))

let select ?(distinct = false) ?(items = [ A.Star ]) ?from ?where
    ?(group_by = []) ?having ?(order_by = []) ?limit ?offset () =
  A.Q_select
    {
      A.sel_distinct = distinct;
      sel_items = items;
      sel_from =
        (match from with
        | Some f -> f
        | None -> [ A.F_table { name = "t0"; alias = None } ]);
      sel_where = where;
      sel_group_by = group_by;
      sel_having = having;
      sel_order_by = order_by;
      sel_limit = limit;
      sel_offset = offset;
    }

(* ---------- per-expression-kind closure compilation ---------- *)

let c0 = A.col "c0"
let c1 = A.col "c1"
let c2 = A.col "c2"
let c3 = A.col "c3"
let i n = A.int_lit (Int64.of_int n)
let s v = A.text_lit v

(* one expression per compiler case (and then some), mixing columns so
   the closures read the current row *)
let expr_battery =
  [
    ("lit-int", i 42);
    ("lit-null", A.null_lit);
    ("lit-real", A.lit (Value.Real 1.5));
    ("col", c0);
    ("col-qualified", A.col ~table:"t0" "c1");
    ("col-missing", A.col "nope");
    ("col-qualified-missing-table", A.col ~table:"nope" "c0");
    ("unary-not", A.not_ (A.Binary (A.Gt, c0, i 1)));
    ("unary-not-not", A.not_ (A.not_ (A.Binary (A.Gt, c0, i 1))));
    ("unary-neg", A.Unary (A.Neg, c0));
    ("unary-neg-text", A.Unary (A.Neg, c1));
    ("unary-pos", A.Unary (A.Pos, c2));
    ("unary-bitnot", A.Unary (A.Bit_not, c0));
    ("and", A.Binary (A.And, A.Binary (A.Gt, c0, i 0), A.isnull c3));
    ("and-shortcircuit", A.Binary (A.And, A.Binary (A.Gt, i 0, i 1), c1));
    ("or", A.Binary (A.Or, A.Binary (A.Lt, c0, i 0), A.isnull c1));
    ("or-shortcircuit", A.Binary (A.Or, A.Binary (A.Lt, i 0, i 1), c1));
    ("concat", A.Binary (A.Concat, c1, s "!"));
    ("concat-null", A.Binary (A.Concat, c3, s "!"));
    ("eq", A.Binary (A.Eq, c0, i 2));
    ("eq-nocase", A.Binary (A.Eq, c1, s "ABC"));
    ("neq", A.Binary (A.Neq, c0, i 2));
    ("lt", A.Binary (A.Lt, c2, A.lit (Value.Real 0.0)));
    ("le", A.Binary (A.Le, c0, i 1));
    ("gt", A.Binary (A.Gt, c0, c2));
    ("ge", A.Binary (A.Ge, c1, c3));
    ("eq-affinity", A.Binary (A.Eq, c0, s "2"));
    ("add", A.Binary (A.Add, c0, i 7));
    ("sub", A.Binary (A.Sub, c0, c2));
    ("mul", A.Binary (A.Mul, c0, c0));
    ("div", A.Binary (A.Div, i 10, c0));
    ("div-zero", A.Binary (A.Div, c0, i 0));
    ("rem", A.Binary (A.Rem, c0, i 2));
    ("bit-and", A.Binary (A.Bit_and, c0, i 3));
    ("bit-or", A.Binary (A.Bit_or, c0, i 8));
    ("shl", A.Binary (A.Shift_left, c0, i 2));
    ("shr", A.Binary (A.Shift_right, c0, i 1));
    ("is-null", A.isnull c3);
    ("is-not-null", A.Is { negated = true; arg = c3; rhs = A.Is_null });
    ("is-true", A.Is { negated = false; arg = c0; rhs = A.Is_true });
    ("is-not-false", A.Is { negated = true; arg = c0; rhs = A.Is_false });
    ("is-expr", A.Is { negated = false; arg = c0; rhs = A.Is_expr (i 2) });
    ( "is-distinct-from",
      A.Is { negated = false; arg = c0; rhs = A.Is_distinct_from (i 2) } );
    ( "between",
      A.Between { negated = false; arg = c0; lo = i 0; hi = i 2 } );
    ( "not-between",
      A.Between { negated = true; arg = c2; lo = c0; hi = i 9 } );
    ("in", A.In_list { negated = false; arg = c0; list = [ i 1; i 2 ] });
    ( "in-with-null",
      A.In_list { negated = false; arg = c0; list = [ i 9; A.null_lit ] } );
    ("in-empty", A.In_list { negated = false; arg = c0; list = [] });
    ( "not-in",
      A.In_list { negated = true; arg = c1; list = [ s "abc"; s "zzz" ] } );
    ( "like",
      A.Like { negated = false; arg = c1; pattern = s "a%"; escape = None } );
    ( "like-escape",
      A.Like
        {
          negated = false;
          arg = c3;
          pattern = s "x\\%";
          escape = Some (s "\\");
        } );
    ( "not-like",
      A.Like { negated = true; arg = c1; pattern = s "_b_"; escape = None } );
    ( "like-bad-escape",
      A.Like
        { negated = false; arg = c1; pattern = s "a%"; escape = Some (s "xx") }
    );
    ("glob", A.Glob { negated = false; arg = c1; pattern = s "[aA]*" });
    ("not-glob", A.Glob { negated = true; arg = c3; pattern = s "x*" });
    ( "cast-int",
      A.Cast (Datatype.Int { width = Datatype.Regular; unsigned = false }, c2)
    );
    ( "cast-unsigned",
      A.Cast (Datatype.Int { width = Datatype.Big; unsigned = true }, c0) );
    ("cast-text", A.Cast (Datatype.Text, c0));
    ("cast-real", A.Cast (Datatype.Real, c1));
    ("func-abs", A.Func (A.F_abs, [ c0 ]));
    ("func-length", A.Func (A.F_length, [ c1 ]));
    ("func-lower", A.Func (A.F_lower, [ c1 ]));
    ("func-upper", A.Func (A.F_upper, [ c3 ]));
    ("func-coalesce", A.Func (A.F_coalesce, [ c3; c1; s "fallback" ]));
    ("func-ifnull", A.Func (A.F_ifnull, [ c3; s "d" ]));
    ("func-nullif", A.Func (A.F_nullif, [ c1; s "ABC" ]));
    ("func-typeof", A.Func (A.F_typeof, [ c2 ]));
    ("func-trim", A.Func (A.F_trim, [ c1 ]));
    ("func-ltrim", A.Func (A.F_ltrim, [ s "  pad" ]));
    ("func-rtrim", A.Func (A.F_rtrim, [ s "pad  " ]));
    ("func-substr", A.Func (A.F_substr, [ c1; i 2 ]));
    ("func-substr3", A.Func (A.F_substr, [ c1; i (-2); i 2 ]));
    ("func-replace", A.Func (A.F_replace, [ c1; s "b"; s "B" ]));
    ("func-instr", A.Func (A.F_instr, [ c1; s "bc" ]));
    ("func-hex", A.Func (A.F_hex, [ c1 ]));
    ("func-round", A.Func (A.F_round, [ c2; i 1 ]));
    ("func-sign", A.Func (A.F_sign, [ c2 ]));
    ("func-quote", A.Func (A.F_quote, [ c3 ]));
    ("func-least", A.Func (A.F_least, [ c0; i 0 ]));
    ("func-wrong-arity", A.Func (A.F_abs, [ c0; c1 ]));
    ("agg-misuse", A.Agg (A.A_count_star, None));
    ( "case",
      A.Case
        {
          operand = None;
          branches =
            [
              (A.Binary (A.Gt, c0, i 1), s "big");
              (A.isnull c0, s "null");
            ];
          else_ = Some (s "small");
        } );
    ( "case-operand",
      A.Case
        {
          operand = Some c0;
          branches = [ (i 1, s "one"); (i 2, s "two") ];
          else_ = None;
        } );
    ( "case-no-else",
      A.Case { operand = None; branches = [ (A.isnull c1, c3) ]; else_ = None }
    );
    ("collate", A.Binary (A.Eq, A.Collate (c3, Collation.Nocase), s "X%"));
    ("nested", A.Binary (A.And, A.not_ (A.isnull c0),
        A.Binary (A.Or, A.Binary (A.Le, c0, c2),
          A.In_list { negated = false; arg = c1; list = [ s "abc"; c3 ] })));
  ]

let count_star = A.Agg (A.A_count_star, None)

let queries_for e =
  [
    select ~items:[ A.Sel_expr (e, Some "r") ] ();
    select ~where:(e) ();
    select ~items:[ A.Sel_expr (e, None) ] ~where:(e)
      ~order_by:[ (e, A.Desc) ]
      ();
    (* the expression under every aggregate, over the whole table *)
    select
      ~items:
        (List.map
           (fun f -> A.Sel_expr (A.Agg (f, Some e), None))
           [ A.A_count; A.A_sum; A.A_avg; A.A_min; A.A_max; A.A_total ]
        @ [ A.Sel_expr (count_star, None) ])
      ();
    (* as a grouping key, with HAVING and aggregate sort keys *)
    select
      ~items:[ A.Sel_expr (e, None); A.Sel_expr (count_star, Some "n") ]
      ~group_by:[ e ]
      ~having:(A.Binary (A.Ge, count_star, i 1))
      ~order_by:[ (A.Agg (A.A_max, Some c0), A.Desc); (e, A.Asc) ]
      ();
    (* as HAVING over one all-rows group *)
    select ~items:[ A.Sel_expr (A.Agg (A.A_min, Some c1), None) ] ~having:e ();
  ]

let test_expr_battery dialect ?(bugs = Engine.Bug.empty_set) () =
  let session = fixture ~bugs dialect in
  let ctx = Engine.Session.ctx session in
  List.iter
    (fun (label, e) ->
      List.iteri
        (fun j q ->
          same_result (Printf.sprintf "%s[%d]" label j) ctx q)
        (queries_for e))
    expr_battery

(* dialect-specific operators on their own dialects *)
let test_dialect_exprs () =
  List.iter
    (fun dialect -> test_expr_battery dialect ())
    [ Dialect.Mysql_like; Dialect.Postgres_like ];
  (* mysql's || is logical OR, <=> is its null-safe equality *)
  let session = fixture Dialect.Mysql_like in
  let ctx = Engine.Session.ctx session in
  same_result "mysql-concat-or" ctx
    (select ~where:((A.Binary (A.Concat, c0, A.isnull c3))) ());
  same_result "mysql-nullsafe-eq" ctx
    (select ~where:((A.Binary (A.Null_safe_eq, c0, A.null_lit))) ())

(* expression-level injected bugs: the compiled backend must be exactly
   as buggy as the interpreter *)
let test_bug_exprs () =
  let sqlite_bugs =
    [
      Engine.Bug.Sq_case_null_when;
      Engine.Bug.Sq_null_in_list_false;
      Engine.Bug.Sq_nocase_like_case_sensitive;
      Engine.Bug.Sq_rtrim_compare_asymmetric;
      Engine.Bug.Sq_between_collate_ignored;
      Engine.Bug.Sq_glob_range_exclusive;
    ]
  in
  List.iter
    (fun bug ->
      test_expr_battery Dialect.Sqlite_like
        ~bugs:(Engine.Bug.set_of_list [ bug ])
        ())
    sqlite_bugs;
  test_expr_battery Dialect.Mysql_like
    ~bugs:(Engine.Bug.set_of_list [ Engine.Bug.My_double_negation_fold ])
    ()

(* ---------- coverage parity ---------- *)

let test_coverage_parity () =
  let hits ctx q =
    let cov = Engine.Coverage.create () in
    let ctx = { ctx with Ex.coverage = Some cov } in
    (match q with
    | `I q -> ignore (Ex.run_query ctx q)
    | `C q -> ignore (Engine.Compile.run_query ctx q));
    ( Engine.Coverage.points_hit cov,
      List.filter_map
        (fun p ->
          match Engine.Coverage.hit_count cov p with
          | 0 -> None
          | n -> Some (p, n))
        Engine.Coverage.static_universe )
  in
  let session = fixture Dialect.Sqlite_like in
  let ctx = Engine.Session.ctx session in
  List.iter
    (fun (label, e) ->
      List.iteri
        (fun j q ->
          let pi, hi = hits ctx (`I q) in
          let pc, hc = hits ctx (`C q) in
          let name = Printf.sprintf "cov %s[%d]" label j in
          Alcotest.(check int) (name ^ " points") pi pc;
          Alcotest.(check (list (pair string int))) (name ^ " counts") hi hc)
        (queries_for e))
    expr_battery

(* ---------- 1,000-seed equivalence sweep ---------- *)

let gen_session seed =
  let dialect = Dialect.Sqlite_like in
  let session = Engine.Session.create ~seed dialect in
  let cfg = Pqs.Gen_db.Config.make ~seed dialect in
  let run stmt =
    match Engine.Session.execute session stmt with
    | Ok _ | Error _ -> ()
    | exception Engine.Errors.Crash _ -> ()
  in
  List.iter run (Pqs.Gen_db.initial_statements cfg);
  List.iter run (Pqs.Gen_db.fill_statements cfg session);
  session

(* scans, filters and full pipelines over one generated table *)
let sweep_queries session =
  let tables = Pqs.Schema_info.tables_of_session session in
  List.concat_map
    (fun (ti : Pqs.Schema_info.table_info) ->
      let name = ti.Pqs.Schema_info.ti_name in
      let from = [ A.F_table { name; alias = None } ] in
      match ti.Pqs.Schema_info.ti_columns with
      | [] -> [ select ~from () ]
      | (col0 : Pqs.Schema_info.column_info) :: _ ->
          let c = A.col col0.Pqs.Schema_info.ci_name in
          let v =
            match Pqs.Schema_info.rows_of_table session name with
            | row :: _ when Array.length row > 0 -> row.(0)
            | _ -> Value.Null
          in
          let base = select ~from in
          [
            base ();
            base ~where:((A.Binary (A.Eq, c, A.lit v))) ();
            base ~where:((A.Binary (A.Gt, c, A.lit v))) ();
            base ~distinct:true ~items:[ A.Sel_expr (c, None) ] ();
            base
              ~items:[ A.Sel_expr (c, Some "k"); A.Star ]
              ~order_by:[ (c, A.Desc) ]
              ();
            base
              ~where:((A.not_ (A.isnull c)))
              ~order_by:[ (c, A.Asc) ]
              ~limit:3L ~offset:1L ();
            A.Q_compound (A.Union, base (), base ());
            A.Q_compound
              ( A.Intersect,
                select ~from ~items:[ A.Sel_expr (c, None) ] (),
                select ~from ~items:[ A.Sel_expr (c, None) ] () );
            A.Q_compound
              ( A.Except,
                select ~from ~items:[ A.Sel_expr (c, None) ] (),
                A.Q_values [ [ A.lit v ] ] );
            base
              ~items:
                [
                  A.Sel_expr (count_star, None);
                  A.Sel_expr (A.Agg (A.A_min, Some c), None);
                  A.Sel_expr (A.Agg (A.A_sum, Some c), None);
                ]
              ~where:(A.Binary (A.Gt, c, A.lit v))
              ();
            base
              ~items:[ A.Sel_expr (c, None); A.Sel_expr (count_star, None) ]
              ~group_by:[ c ]
              ~having:(A.Binary (A.Ge, count_star, i 1))
              ~order_by:[ (c, A.Asc) ]
              ();
          ])
    tables
  @ List.concat_map
      (fun (name, _) ->
        let from = [ A.F_table { name; alias = None } ] in
        [
          select ~from ();
          select ~from ~where:(A.Binary (A.Eq, i 1, i 1)) ();
        ])
      (Pqs.Schema_info.views_of_session session)
  @ [
      A.Q_values [ [ i 1; s "a" ]; [ A.null_lit; s "b" ] ];
      select ~from:[] ~items:[ A.Sel_expr (A.Binary (A.Add, i 1, i 2), None) ]
        ();
      select ~from:[]
        ~items:[ A.Sel_expr (i 1, None) ]
        ~where:((A.Binary (A.Eq, i 1, i 2)))
        ();
    ]

let test_equivalence_sweep () =
  let queries = ref 0 in
  for seed = 1 to 1000 do
    let session = gen_session seed in
    let ctx = Engine.Session.ctx session in
    List.iter
      (fun q ->
        incr queries;
        same_result (Printf.sprintf "seed %d" seed) ctx q)
      (sweep_queries session)
  done;
  Alcotest.(check bool) "swept a real battery" true (!queries > 5000)

(* ---------- campaign neutrality ---------- *)

let round_stats backend ~bugs ~db_seed =
  Pqs.Runner.run_round
    (Pqs.Runner.Config.make ~bugs ~backend Dialect.Sqlite_like)
    ~db_seed

let test_round_parity () =
  for db_seed = 1 to 150 do
    let a =
      round_stats Engine.Exec_backend.Interpreted
        ~bugs:Engine.Bug.empty_set ~db_seed
    and b =
      round_stats Engine.Exec_backend.Compiled ~bugs:Engine.Bug.empty_set
        ~db_seed
    in
    if a <> b then
      Alcotest.fail
        (Printf.sprintf "round stats diverge at seed %d" db_seed)
  done

(* every injected bug: same rounds, same findings, either backend *)
let test_round_parity_bug_catalog () =
  List.iter
    (fun bug ->
      let bugs = Engine.Bug.set_of_list [ bug ] in
      List.iter
        (fun db_seed ->
          let run backend =
            match round_stats backend ~bugs ~db_seed with
            | st -> Ok st
            | exception Engine.Errors.Crash m -> Error m
          in
          let a = run Engine.Exec_backend.Interpreted
          and b = run Engine.Exec_backend.Compiled in
          if a <> b then
            Alcotest.fail
              (Printf.sprintf "%s: stats diverge at seed %d"
                 (Engine.Bug.show bug) db_seed))
        [ 3; 17; 7919 ])
    Engine.Bug.all

let test_campaign_parity () =
  let campaign backend =
    let c =
      Pqs.Campaign.run ~domains:1 ~seed_lo:1 ~seed_hi:101
        (Pqs.Runner.Config.make ~backend Dialect.Sqlite_like)
    in
    (Pqs.Campaign.reports c, c.Pqs.Campaign.stats)
  in
  let ra, sa = campaign Engine.Exec_backend.Interpreted in
  let rb, sb = campaign Engine.Exec_backend.Compiled in
  Alcotest.(check bool) "identical reports" true (ra = rb);
  Alcotest.(check bool) "identical merged stats" true (sa = sb)

(* ---------- views and aggregation ---------- *)

(* view expansion and GROUP BY / aggregate / HAVING shapes, with the
   defects injected at their shared sites, in every dialect *)
let agg_view_setup =
  [
    "CREATE VIEW v0 AS SELECT DISTINCT c1, c3 FROM t0";
    "CREATE VIEW v1 AS SELECT c0, COUNT(*) AS n FROM t0 GROUP BY c0";
  ]

let agg_view_queries =
  [
    "SELECT * FROM v0";
    "SELECT * FROM v0 WHERE c1 IS NOT NULL";
    "SELECT v0.c3, t1.d0 FROM v0, t1 WHERE t1.d0 > 1";
    "SELECT * FROM v1 WHERE n > 1 ORDER BY c0";
    "SELECT * FROM t1 LEFT JOIN v0 ON t1.d0 = 1";
    "SELECT * FROM nope";
    "SELECT * FROM t1, nope";
    "SELECT COUNT(*), SUM(c0), AVG(c2), TOTAL(c2), MIN(c1), MAX(c3) FROM t0";
    "SELECT COUNT(c0), MIN(c0) FROM t0 WHERE c0 > 100";
    "SELECT c0, COUNT(*) FROM t0 WHERE c0 > 100";
    "SELECT *, COUNT(*) FROM t0";
    "SELECT c1, COUNT(*), MAX(c2) FROM t0 GROUP BY c1 ORDER BY c1";
    "SELECT c1, c3 FROM t0 GROUP BY c1, c3 HAVING COUNT(*) > 1";
    "SELECT c0 FROM t0 GROUP BY c0 HAVING SUM(c2) < 0 ORDER BY MIN(c2) DESC";
    "SELECT DISTINCT COUNT(*) FROM t0 GROUP BY c1 LIMIT 2";
    "SELECT t0.c0, COUNT(*) FROM t0, t1 WHERE t0.c0 = t1.d0 GROUP BY t0.c0";
    "SELECT MIN(c1 COLLATE NOCASE), MAX(c3) FROM t0";
    "SELECT SUM(COUNT(c0)) FROM t0";
    "SELECT c0 FROM t0 GROUP BY c0 HAVING nope > 1";
    "SELECT * FROM (SELECT c1, COUNT(*) AS n FROM t0 GROUP BY c1) AS s \
     WHERE s.n >= 1";
    "SELECT c1 FROM v0 UNION SELECT c1 FROM t0 GROUP BY c1";
  ]

let test_views_and_aggregates () =
  List.iter
    (fun (dialect, bugs) ->
      let session =
        fixture ~bugs:(Engine.Bug.set_of_list bugs) dialect
      in
      List.iter (exec session) agg_view_setup;
      let ctx = Engine.Session.ctx session in
      List.iter
        (fun sql ->
          match parse_sql sql with
          | A.Select_stmt q ->
              same_result
                (Printf.sprintf "%s %s" (Dialect.name dialect) sql)
                ctx q
          | _ -> Alcotest.fail sql)
        agg_view_queries)
    [
      (Dialect.Sqlite_like, []);
      (Dialect.Sqlite_like, [ Engine.Bug.Sq_view_distinct_pushdown ]);
      (Dialect.Sqlite_like, [ Engine.Bug.Sq_agg_collate_crash ]);
      (Dialect.Mysql_like, []);
      (Dialect.Postgres_like, []);
    ];
  (* postgres Listing 15: grouping over an inherited table *)
  List.iter
    (fun bugs ->
      let session =
        Engine.Session.create ~bugs:(Engine.Bug.set_of_list bugs)
          Dialect.Postgres_like
      in
      List.iter (exec session)
        [
          "CREATE TABLE p0(c0 TEXT, c1 TEXT PRIMARY KEY, c2 INT)";
          "CREATE TABLE k0(c0 TEXT, c1 TEXT) INHERITS (p0)";
          "INSERT INTO k0 VALUES ('a', '_', 1), ('b', '_', 2)";
          "INSERT INTO p0 VALUES ('c', 'x', 3)";
        ];
      let ctx = Engine.Session.ctx session in
      List.iter
        (fun sql ->
          match parse_sql sql with
          | A.Select_stmt q -> same_result sql ctx q
          | _ -> Alcotest.fail sql)
        [
          "SELECT p0.c0, p0.c1, p0.c2 FROM p0 GROUP BY p0.c0, p0.c1, p0.c2";
          "SELECT c1, COUNT(*) FROM p0 GROUP BY c1";
        ])
    [ []; [ Engine.Bug.Pg_inherit_group_by_dedup ] ]

(* rows whose text holds the old string key's separator must stay
   distinct under DISTINCT, UNION and GROUP BY *)
let test_row_identity () =
  let session = fixture Dialect.Sqlite_like in
  let ctx = Engine.Session.ctx session in
  let r1 = [ s "a\x00t:b"; s "c" ] and r2 = [ s "a"; s "b\x00t:c" ] in
  let sub = A.Q_compound (A.Union_all, A.Q_values [ r1 ], A.Q_values [ r2 ]) in
  let from = [ A.F_sub { sub; alias = "s" } ] in
  let queries =
    [
      ("UNION", A.Q_compound (A.Union, A.Q_values [ r1 ], A.Q_values [ r2 ]));
      ("DISTINCT", select ~distinct:true ~from ());
      ( "GROUP BY",
        select ~from
          ~items:[ A.Sel_expr (count_star, None) ]
          ~group_by:[ A.col "column1"; A.col "column2" ]
          () );
    ]
  in
  List.iter
    (fun (label, q) ->
      List.iter
        (fun (backend, run) ->
          match run ctx q with
          | Ok rs ->
              Alcotest.(check int)
                (Printf.sprintf "%s keeps both rows (%s)" label backend)
                2 (List.length rs.Ex.rs_rows)
          | Error e -> Alcotest.fail (Engine.Errors.show e))
        [ ("interpreted", Ex.run_query); ("compiled", Engine.Compile.run_query) ])
    queries;
  Alcotest.(check bool) "1 and 1.0 and TRUE share a key" true
    (Ex.equal_row_key
       (Ex.row_key [| Value.Int 1L |])
       (Ex.row_key [| Value.Real 1.0 |])
    && Ex.equal_row_key
         (Ex.row_key [| Value.Real 1.0 |])
         (Ex.row_key [| Value.Bool true |]));
  Alcotest.(check bool) "text and blob keys differ" false
    (Ex.equal_row_key
       (Ex.row_key [| Value.Text "x" |])
       (Ex.row_key [| Value.Blob "x" |]))

(* ---------- backend API ---------- *)

let test_backend_api () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Engine.Exec_backend.name k ^ " round-trips")
        true
        (Engine.Exec_backend.of_name (Engine.Exec_backend.name k) = Ok k))
    Engine.Exec_backend.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Engine.Exec_backend.of_name "llvm"));
  let session =
    Engine.Session.create ~backend:Engine.Exec_backend.Compiled
      Dialect.Sqlite_like
  in
  Alcotest.(check bool) "session remembers its backend" true
    (Engine.Session.backend session = Engine.Exec_backend.Compiled);
  Alcotest.(check bool) "default is compiled" true
    (Engine.Session.backend (Engine.Session.create Dialect.Sqlite_like)
    = Engine.Exec_backend.Compiled)

(* a compiled session produces working results end to end, including
   EXPLAIN ANALYZE batch annotations *)
let test_compiled_session () =
  let session = fixture ~backend:Engine.Exec_backend.Compiled Dialect.Sqlite_like in
  (match
     Engine.Session.execute session
       (parse_sql "SELECT c0 FROM t0 WHERE c0 > 0 ORDER BY c0")
   with
  | Ok (Engine.Session.Rows rs) ->
      Alcotest.(check int) "rows" 3 (List.length rs.Ex.rs_rows)
  | other ->
      Alcotest.fail
        (Format.asprintf "unexpected: %a"
           (fun fmt -> function
             | Ok r -> Engine.Session.pp_exec_result fmt r
             | Error e -> Format.pp_print_string fmt (Engine.Errors.show e))
           other));
  match
    Engine.Session.execute session
      (parse_sql "EXPLAIN ANALYZE SELECT * FROM t0 WHERE c0 > 0")
  with
  | Ok (Engine.Session.Rows rs) ->
      let lines =
        List.map
          (function [| Value.Text l |] -> l | _ -> "?")
          rs.Ex.rs_rows
      in
      Alcotest.(check bool)
        ("a batches= annotation is present in: "
        ^ String.concat " | " lines)
        true
        (List.exists
           (fun l ->
             let re = "batches=" in
             let ll = String.length l and lr = String.length re in
             let rec go i =
               i + lr <= ll && (String.sub l i lr = re || go (i + 1))
             in
             go 0)
           lines)
  | _ -> Alcotest.fail "EXPLAIN ANALYZE failed"

(* a default session runs GROUP BY/HAVING and view queries on the
   compiled pipeline: their operator events carry batch counts *)
let test_default_compiled_operators () =
  let session = fixture Dialect.Sqlite_like in
  List.iter (exec session) agg_view_setup;
  let contains l sub =
    let ll = String.length l and ls = String.length sub in
    let rec go i = i + ls <= ll && (String.sub l i ls = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (sql, op) ->
      match Engine.Session.execute session (parse_sql ("EXPLAIN ANALYZE " ^ sql)) with
      | Ok (Engine.Session.Rows rs) ->
          let lines =
            List.map (function [| Value.Text l |] -> l | _ -> "?") rs.Ex.rs_rows
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s has a batched %s event in: %s" sql op
               (String.concat " | " lines))
            true
            (List.exists
               (fun l ->
                 String.length l >= String.length op
                 && String.sub l 0 (String.length op) = op
                 && contains l "batches=")
               lines)
      | _ -> Alcotest.fail ("EXPLAIN ANALYZE failed: " ^ sql))
    [
      ("SELECT c1, COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 1", "AGGREGATE");
      ("SELECT * FROM v0 WHERE c3 IS NULL", "VIEW");
      ("SELECT * FROM v1", "AGGREGATE");
    ]

let () =
  Alcotest.run "compile"
    [
      ( "expressions",
        [
          Alcotest.test_case "sqlite battery" `Quick (fun () ->
              test_expr_battery Dialect.Sqlite_like ());
          Alcotest.test_case "all dialects" `Quick test_dialect_exprs;
          Alcotest.test_case "injected expression bugs" `Quick test_bug_exprs;
          Alcotest.test_case "coverage parity" `Quick test_coverage_parity;
        ] );
      ( "queries",
        [
          Alcotest.test_case "views and aggregates" `Quick
            test_views_and_aggregates;
          Alcotest.test_case "row identity" `Quick test_row_identity;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "1,000-seed equivalence" `Quick
            test_equivalence_sweep;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "round parity, bug-free" `Quick test_round_parity;
          Alcotest.test_case "round parity, injected catalog" `Slow
            test_round_parity_bug_catalog;
          Alcotest.test_case "campaign parity" `Quick test_campaign_parity;
        ] );
      ( "api",
        [
          Alcotest.test_case "backend names and routing" `Quick
            test_backend_api;
          Alcotest.test_case "compiled session end to end" `Quick
            test_compiled_session;
          Alcotest.test_case "default session compiles aggregates and views"
            `Quick test_default_compiled_operators;
        ] );
    ]

open Sqlval
module A = Sqlast.Ast

(* a synthesized SELECT's clause combination, one [shape.*] point *)
type shape = {
  sh_join : [ `Single | `Cross | `Inner | `Left ];
  sh_sub : bool;
  sh_where : int;
  sh_distinct : bool;
  sh_order : bool;
  sh_group : bool;
}

(* ------------------------------------------------------------------ *)
(* Shape points                                                         *)

let b01 b = if b then 1 else 0
let join_tokens = [| "single"; "cross"; "inner"; "left" |]

let join_index = function `Single -> 0 | `Cross -> 1 | `Inner -> 2 | `Left -> 3

(* position of a shape in [shape_names]: a mixed-radix number over
   join (4) x sub (2) x where arity 1..3 (3) x distinct x order x group *)
let shape_slot s =
  (((((join_index s.sh_join * 2) + b01 s.sh_sub) * 3 + (s.sh_where - 1)) * 2
    + b01 s.sh_distinct)
   * 2
  + b01 s.sh_order)
  * 2
  + b01 s.sh_group

(* every shape point's name, rendered once: fingerprinting runs per
   synthesized query and must not format strings *)
let shape_names =
  Array.init (4 * 2 * 3 * 2 * 2 * 2) (fun i ->
      Printf.sprintf "shape.j%s.v%d.w%d.d%d.o%d.g%d"
        join_tokens.(i / 48)
        (i / 24 mod 2)
        ((i / 8 mod 3) + 1)
        (i / 4 mod 2) (i / 2 mod 2) (i mod 2))

let point_of_shape s = shape_names.(shape_slot s)

(* ------------------------------------------------------------------ *)
(* Fingerprinting                                                       *)

(* the [expr.*] point of a node, as a literal: no string is built per
   node *)
let point_of_node = function
  | A.Lit _ | A.Col _ -> None
  | A.Unary (A.Not, _) -> Some "expr.not"
  | A.Unary ((A.Neg | A.Pos | A.Bit_not), _) -> Some "expr.unary"
  | A.Binary (op, _, _) ->
      Some
        (match op with
        | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge -> "expr.cmp"
        | A.Null_safe_eq -> "expr.nullsafe_eq"
        | A.And | A.Or -> "expr.logic"
        | A.Add | A.Sub | A.Mul | A.Div | A.Rem -> "expr.arith"
        | A.Concat -> "expr.concat"
        | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right -> "expr.bitop")
  | A.Is { rhs = A.Is_null; _ } -> Some "expr.is_null"
  | A.Is { rhs = A.Is_true | A.Is_false; _ } -> Some "expr.is_bool"
  | A.Is { rhs = A.Is_expr _; _ } -> Some "expr.is_expr"
  | A.Is { rhs = A.Is_distinct_from _; _ } -> Some "expr.is_distinct"
  | A.Between _ -> Some "expr.between"
  | A.In_list _ -> Some "expr.in"
  | A.Like _ -> Some "expr.like"
  | A.Glob _ -> Some "expr.glob"
  | A.Cast _ -> Some "expr.cast"
  | A.Func _ -> Some "expr.func"
  | A.Agg _ -> Some "expr.agg"
  | A.Case _ -> Some "expr.case"
  | A.Collate _ -> Some "expr.collate"

let rec exprs_of_from = function
  | A.F_table _ -> []
  | A.F_join { left; right; on; _ } ->
      exprs_of_from left @ exprs_of_from right @ Option.to_list on
  | A.F_sub { sub; _ } -> exprs_of_query sub

and exprs_of_query = function
  | A.Q_select s -> exprs_of_select s
  | A.Q_values rows -> List.concat rows
  | A.Q_compound (_, a, b) -> exprs_of_query a @ exprs_of_query b

and exprs_of_select (s : A.select) =
  List.filter_map
    (function A.Sel_expr (e, _) -> Some e | A.Star | A.Table_star _ -> None)
    s.sel_items
  @ List.concat_map exprs_of_from s.sel_from
  @ Option.to_list s.sel_where @ s.sel_group_by
  @ Option.to_list s.sel_having
  @ List.map fst s.sel_order_by

let rec conjuncts = function
  | A.Binary (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec from_has_sub = function
  | A.F_table _ -> false
  | A.F_sub _ -> true
  | A.F_join { left; right; _ } -> from_has_sub left || from_has_sub right

let shape_of_select (s : A.select) =
  let join =
    match s.sel_from with
    | [ A.F_join { kind = A.Inner; _ } ] -> `Inner
    | [ A.F_join { kind = A.Left; _ } ] -> `Left
    | [ A.F_join { kind = A.Cross; _ } ] -> `Cross
    | [ _ ] -> `Single
    | _ -> `Cross
  in
  {
    sh_join = join;
    sh_sub = List.exists from_has_sub s.sel_from;
    sh_where =
      (match s.sel_where with
      | None -> 1
      | Some w -> min 3 (List.length (conjuncts w)));
    sh_distinct = s.sel_distinct;
    sh_order = s.sel_order_by <> [];
    sh_group = s.sel_group_by <> [];
  }

let fingerprint (s : A.select) =
  let expr_points =
    List.concat_map
      (fun e ->
        A.fold_expr
          (fun acc n ->
            match point_of_node n with Some p -> p :: acc | None -> acc)
          [] e
        |> List.rev)
      (exprs_of_select s)
  in
  point_of_shape (shape_of_select s) :: expr_points

(* ------------------------------------------------------------------ *)
(* Per-dialect universe                                                 *)

let shape_points =
  (* GROUP BY is only generated over a single pivot table (every selected
     column must be plain and grouping needs one source), so g=1 combos
     exist only under jsingle *)
  List.concat_map
    (fun j ->
      List.concat_map
        (fun v ->
          List.concat_map
            (fun w ->
              List.concat_map
                (fun d ->
                  List.concat_map
                    (fun o ->
                      let gs = if j = `Single then [ false; true ] else [ false ] in
                      List.map
                        (fun g ->
                          point_of_shape
                            {
                              sh_join = j;
                              sh_sub = v;
                              sh_where = w;
                              sh_distinct = d;
                              sh_order = o;
                              sh_group = g;
                            })
                        gs)
                    [ false; true ])
                [ false; true ])
            [ 1; 2; 3 ])
        [ false; true ])
    [ `Single; `Cross; `Inner; `Left ]

let expr_kinds = function
  | Dialect.Sqlite_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "concat"; "bitop"; "is_null";
        "is_bool"; "is_expr"; "between"; "in"; "like"; "glob"; "case"; "cast";
        "collate"; "func"; "agg" ]
  | Dialect.Mysql_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "bitop"; "nullsafe_eq";
        "is_null"; "is_bool"; "between"; "in"; "like"; "case"; "cast"; "func";
        "agg" ]
  | Dialect.Postgres_like ->
      [ "cmp"; "logic"; "not"; "unary"; "arith"; "concat"; "is_null";
        "is_bool"; "is_distinct"; "between"; "in"; "like"; "case"; "cast";
        "func"; "agg" ]

let plan_points dialect =
  let base =
    [ "full_scan"; "index_eq"; "index_range"; "index_like_prefix";
      "partial_index"; "skip_scan"; "desc_index"; "or_union" ]
  in
  let base =
    (* partial indexes are never generated for the mysql-like dialect
       (Gen_db gates CREATE INDEX ... WHERE on sqlite/postgres) *)
    if Dialect.equal dialect Dialect.Mysql_like then
      List.filter (fun p -> p <> "partial_index") base
    else base
  in
  List.map (fun p -> "plan." ^ p) base

let universe dialect =
  shape_points
  @ List.map (fun k -> "expr." ^ k) (expr_kinds dialect)
  @ plan_points dialect

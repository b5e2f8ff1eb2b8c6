open Vmat_storage
open Vmat_relalg

type sp = {
  sp_name : string;
  sp_base : Schema.t;
  sp_pred : Predicate.t;
  sp_positions : int array;
  sp_cluster_out : int;
  sp_out_schema : Schema.t;
}

let position_of schema column =
  match Schema.column_index schema column with
  | i -> i
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "View_def: column %s not in schema %s" column (Schema.name schema))

let output_position ~projected ~cluster =
  let rec find i = function
    | [] -> invalid_arg ("View_def: cluster column " ^ cluster ^ " is not projected")
    | c :: rest -> if String.equal c cluster then i else find (i + 1) rest
  in
  find 0 projected

let make_sp ~name ~base ~pred ~project ~cluster =
  let positions = Array.of_list (List.map (position_of base) project) in
  {
    sp_name = name;
    sp_base = base;
    sp_pred = pred;
    sp_positions = positions;
    sp_cluster_out = output_position ~projected:project ~cluster;
    sp_out_schema = Schema.project base ~name ~column_names:project ~key:cluster;
  }

let sp_reads sp = Predicate.columns_read sp.sp_pred @ Array.to_list sp.sp_positions

let sp_output ~tids sp tuple =
  Tuple.with_tid (Tuple.project tuple sp.sp_positions) (Tuple.next tids)

let sp_output_view ~tids sp view =
  Tuple_view.project view sp.sp_positions ~tid:(Tuple.next tids)

type join = {
  j_name : string;
  j_left : Schema.t;
  j_right : Schema.t;
  j_left_pred : Predicate.t;
  j_left_col : int;
  j_right_col : int;
  j_positions_left : int array;
  j_positions_right : int array;
  j_cluster_out : int;
  j_out_schema : Schema.t;
}

let make_join ~name ~left ~right ~left_pred ~on:(left_on, right_on) ~project_left
    ~project_right ~cluster =
  let positions_left = Array.of_list (List.map (position_of left) project_left) in
  let positions_right = Array.of_list (List.map (position_of right) project_right) in
  let out_columns =
    List.map (fun c -> List.nth (Schema.columns left) (position_of left c)) project_left
    @ List.map (fun c -> List.nth (Schema.columns right) (position_of right c)) project_right
  in
  let half_bytes s = max 1 ((Schema.tuple_bytes s + 1) / 2) in
  let out_schema =
    Schema.make ~name ~columns:out_columns
      ~tuple_bytes:(half_bytes left + half_bytes right)
      ~key:cluster
  in
  {
    j_name = name;
    j_left = left;
    j_right = right;
    j_left_pred = left_pred;
    j_left_col = position_of left left_on;
    j_right_col = position_of right right_on;
    j_positions_left = positions_left;
    j_positions_right = positions_right;
    j_cluster_out = output_position ~projected:(project_left @ project_right) ~cluster;
    j_out_schema = out_schema;
  }

let join_output ~tids j left_tuple right_tuple =
  let l = Tuple.project left_tuple j.j_positions_left in
  let r = Tuple.project right_tuple j.j_positions_right in
  Tuple.concat ~tid:(Tuple.next tids) l r

type agg_kind =
  | Count
  | Sum of int
  | Avg of int
  | Variance of int
  | Min of int
  | Max of int

type agg = { a_name : string; a_over : sp; a_kind : agg_kind }

let make_agg ~name ~over ~kind =
  let col c = position_of over.sp_base c in
  let a_kind =
    match kind with
    | `Count -> Count
    | `Sum c -> Sum (col c)
    | `Avg c -> Avg (col c)
    | `Variance c -> Variance (col c)
    | `Min c -> Min (col c)
    | `Max c -> Max (col c)
  in
  { a_name = name; a_over = over; a_kind }

(** View definitions for the paper's three models: selection-projection of
    one relation (Model 1), natural join of two relations on a key of the
    second (Model 2), and aggregates over a Model-1 view (Model 3). *)

open Vmat_storage
open Vmat_relalg

type sp = {
  sp_name : string;
  sp_base : Schema.t;
  sp_pred : Predicate.t;
  sp_positions : int array;  (** projected base columns, in output order *)
  sp_cluster_out : int;  (** output position of the view's clustering column *)
  sp_out_schema : Schema.t;
}

val make_sp :
  name:string ->
  base:Schema.t ->
  pred:Predicate.t ->
  project:string list ->
  cluster:string ->
  sp
(** @raise Invalid_argument if [cluster] is not among the projected columns
    or the projection names a missing column. *)

val sp_reads : sp -> int list
(** The base columns the view reads: those its predicate tests, then those
    it projects (the [reads] of {!Screen.readily_ignorable}). *)

val sp_output : tids:Tuple.source -> sp -> Tuple.t -> Tuple.t
(** Project a base tuple into view shape (fresh tid from [tids]). *)

val sp_output_view : tids:Tuple.source -> sp -> Tuple_view.t -> Tuple.t
(** {!sp_output} straight off a page cursor: projects the viewed row into a
    boxed view tuple in one allocation (fresh tid from [tids]). *)

type join = {
  j_name : string;
  j_left : Schema.t;
  j_right : Schema.t;
  j_left_pred : Predicate.t;  (** the clause [C_f], over left columns *)
  j_left_col : int;
  j_right_col : int;  (** a key of the right relation *)
  j_positions_left : int array;
  j_positions_right : int array;
  j_cluster_out : int;
  j_out_schema : Schema.t;
}

val make_join :
  name:string ->
  left:Schema.t ->
  right:Schema.t ->
  left_pred:Predicate.t ->
  on:string * string ->
  project_left:string list ->
  project_right:string list ->
  cluster:string ->
  join
(** [cluster] must name a projected column of the left relation. *)

val join_output : tids:Tuple.source -> join -> Tuple.t -> Tuple.t -> Tuple.t
(** Build the view tuple for a joining pair (fresh tid from [tids]). *)

type agg_kind =
  | Count
  | Sum of int
  | Avg of int
  | Variance of int
  | Min of int
  | Max of int

type agg = { a_name : string; a_over : sp; a_kind : agg_kind }

val make_agg : name:string -> over:sp -> kind:[ `Count | `Sum of string | `Avg of string | `Variance of string | `Min of string | `Max of string ] -> agg
(** Column names are resolved against the base schema of [over].
    @raise Invalid_argument on a missing column. *)

(** Compile a fleet of selection-projection views over one base relation
    into a shared-subexpression DAG (DESIGN §14).

    Three sharing mechanisms, per Mistry/Roy/Ramamritham/Sudarshan:

    - {b Equivalence classes}: views whose {!Ir.signature} agrees (same
      normalized predicate, projection and clustering) collapse into one
      [Class] node; the member views are aliases served by the same stored
      state and screened once, not once per view.
    - {b Subsumed ranges}: a class whose region is provably contained in
      another class with a compatible projection hangs below it; when
      transient, it answers queries by scanning its parent's (smaller)
      materialization instead of the base relation.
    - {b Shared selection prefixes / cluster columns}: classes that all
      constrain a common clustering column are grouped under a synthetic
      [Group] node whose predicate is the interval hull of the members —
      a shared intermediate that screens deltas once for the whole group
      and, if the advisor materializes it, gives every transient member a
      cheap scan source.

    Nodes are emitted in topological order (parents before children), so a
    single left-to-right pass over [dag_nodes] is a valid maintenance
    order. *)

open Vmat_storage

type kind = Class | Group

type node = {
  nd_id : int;  (** position in [dag_nodes] *)
  nd_name : string;
  nd_kind : kind;
  nd_def : Vmat_view.View_def.sp;
      (** Representative definition: the shared predicate, projection and
          output schema this node's storage uses.  [Group] nodes project
          every base column (their rows are full base tuples). *)
  nd_norm : Ir.t;
  nd_members : string list;  (** view names served (empty for [Group]) *)
  nd_parent : int option;  (** [None] = the base relation *)
  nd_children : int list;
}

type t = {
  dag_base : Schema.t;
  dag_nodes : node array;
  dag_view_node : (string * int) list;  (** view name → class node id *)
  dag_classes : int;
  dag_groups : int;
  dag_aliases : int;  (** views beyond the first of each class *)
}

val build : base:Schema.t -> Vmat_view.View_def.sp list -> t
(** @raise Invalid_argument on an empty list, duplicate view names, or a
    view over another schema (the contract of [Fleet.create]). *)

val node_of_view : t -> string -> node
(** @raise Not_found for an unknown view name. *)

val roots : t -> int list
(** Node ids with no parent, in topological order. *)

val describe : t -> string list
(** One human-readable line per node (vmperf / debugging). *)

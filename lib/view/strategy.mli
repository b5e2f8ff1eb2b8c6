(** The common operational interface of the view materialization strategies.
    A strategy owns its storage structures (built over a shared simulated
    disk/meter) and processes two kinds of operations — update transactions
    against the base relation(s) and queries against the view — charging
    costs to the meter categories exactly as the paper attributes them. *)

open Vmat_storage
open Vmat_relalg

type change = { before : Tuple.t option; after : Tuple.t option }
(** One base-relation change within a transaction: insert ([before = None]),
    delete ([after = None]) or modification (both present; the new tuple has
    a fresh tid, per the hypothetical-relation discipline). *)

val modify : old_tuple:Tuple.t -> new_tuple:Tuple.t -> change
val insert : Tuple.t -> change
val delete : Tuple.t -> change

type query = { q_lo : Value.t; q_hi : Value.t }
(** A range query on the view's clustering column (retrieving the fraction
    [fv] of the view). *)

type t = {
  name : string;
  handle_transaction : change list -> unit;
      (** Process one update transaction (the paper's [l] tuples). *)
  answer_query : query -> (Tuple.t * int) list;
      (** Answer a view query: view tuples with duplicate counts. *)
  scalar_query : unit -> float;
      (** Aggregate strategies: current aggregate value (charging the state
          page I/O).  Non-aggregate strategies raise [Invalid_argument]. *)
  view_contents : unit -> Bag.t;
      (** The logical view contents with all pending changes applied —
          unmetered, for equivalence testing. *)
}

type geometry = Ctx.geometry = { page_bytes : int; index_entry_bytes : int }
(** The paper's [B] and [n] — an alias of {!Vmat_storage.Ctx.geometry}, the
    per-engine execution context's geometry. *)

val default_geometry : geometry
(** [B = 4000], [n = 20] (= {!Vmat_storage.Ctx.default_geometry}). *)

val fanout : geometry -> int
(** Index fanout [B/n]. *)

val blocking_factor : geometry -> Schema.t -> int
(** Tuples per page [B/S] for a schema (at least 1). *)

val no_scalar : unit -> float
(** Shared [scalar_query] for non-aggregate strategies. *)

val base_relation :
  Ctx.t -> Schema.t -> key_col:int -> Tuple.t list -> Vmat_index.Btree.t
(** A base relation stored as a clustered B+-tree on [key_col], loaded with
    the initial tuples; its pool is dropped, so the first metered access
    reads from disk. *)

val hypothetical :
  ?layout:Vmat_hypo.Hr.layout ->
  Ctx.t ->
  base:Vmat_index.Btree.t ->
  schema:Schema.t ->
  ad_buckets:int ->
  Vmat_hypo.Hr.t
(** The hypothetical relation over [base], its differential file paged at
    the context geometry's blocking factor for [schema]. *)

val refresh_span : Cost_meter.t -> view:string -> ?name:string -> (unit -> 'a) -> 'a
(** [refresh_span meter ~view f] runs the refresh body [f] inside a
    [cat:"view"] trace span (default name ["refresh"]) on the meter's
    recorder, attaching the modeled cost the body charged as a [cost_ms]
    end-attribute.  Free (one branch) when the recorder is disabled; never
    affects the meter either way. *)

val base_tuples : Vmat_index.Btree.t -> Tuple.t list
(** The base relation's tuples, read unmetered, last key first (catalog
    reads for [view_contents] and the sanitizers). *)

val stored_view :
  Ctx.t -> name:string -> schema:Schema.t -> cluster_col:int -> Bag.t -> Materialized.t
(** A stored view at the context geometry's fanout and blocking factor for
    its output [schema], clustered on output column [cluster_col] and
    rebuilt from the given contents. *)

val write_base : Cost_meter.t -> Vmat_index.Btree.t -> change list -> unit
(** Write a transaction to the base relation: for each change in order,
    remove the before image at its key and tid and insert the after image.
    All of it is charged to [Base]; the pool is dropped at the end. *)

val immediate_step :
  Cost_meter.t ->
  view:string ->
  base:Vmat_index.Btree.t ->
  mark:(change -> bool option * bool option) ->
  delete:(Tuple.t -> unit) ->
  insert:(Tuple.t -> unit) ->
  flush:(unit -> unit) ->
  change list ->
  unit
(** One transaction of immediate maintenance (§2.1, after [Blak86]):
    {!write_base}; [mark] each change's before and after images (the
    screening verdicts; [Some true] puts the image in D or A); charge [C3]
    per entry of the in-memory D and A sets to [Overhead]; then, inside a
    {!refresh_span} under [Refresh], [delete] every D entry and [insert]
    every A entry, each in change order, and [flush]. *)

val scan_modified :
  Cost_meter.t ->
  compiled:(Tuple_view.t -> bool option) ->
  col:int ->
  lo:Value.t ->
  hi:Value.t ->
  ((Tuple_view.t -> unit) -> unit) ->
  (Tuple_view.t -> unit) ->
  unit
(** The query-modification row test (§3.3): [scan_modified meter ~compiled
    ~col ~lo ~hi examined k] charges one [C1] per row [examined] hands out
    and calls [k] on each row the compiled view predicate accepts whose
    column [col] lies between [lo] and [hi] inclusive.  The cursor is valid
    only during [k]. *)

val min_sentinel : Value.t
val max_sentinel : Value.t
(** Extreme values bracketing every key (used for unbounded scans and
    t-lock interval ends). *)

val clustered_scan_bounds : Predicate.t -> cluster_col:int -> Value.t * Value.t
(** The key range a clustered scan must cover to see every tuple satisfying
    the predicate: the envelope of the predicate's interval cover on the
    clustering column, or the whole key space if no cover exists. *)

(** Multi-version snapshot store with pin/reclaim (DESIGN §10).

    The concurrency substrate of the serving subsystem: a single writer
    {!publish}es an immutable payload per commit epoch; reader domains
    {!pin} the latest version, query it outside any lock, and {!unpin} it
    when done.  A superseded version is reclaimed (dropped from the live
    list) as soon as its pin count reaches zero; the newest version is
    always retained as the target of the next pin.  All operations are
    thread-safe and non-blocking apart from a short mutex-protected
    critical section.

    Payloads must be immutable: every pinning domain receives the same
    value.  The serving layer stores {!Vmat_serve.Snapshot.t} values: the
    view's canonical rows at one commit epoch, built from the strategy's
    answer when the writer publishes. *)

type 'a t

type stats = {
  st_published : int;  (** total versions ever published *)
  st_reclaimed : int;  (** superseded versions dropped after their last unpin *)
  st_live : int;  (** versions currently retained *)
  st_max_live : int;  (** high-water mark of retained versions *)
}

val create : ?first_version:int -> unit -> 'a t
(** An empty store; the first {!publish} gets version [first_version]
    (default 0) and versions increase by 1 per publish. *)

val publish : 'a t -> 'a -> int
(** Make [payload] the latest version and return its version number.
    Superseded unpinned versions are reclaimed immediately. *)

val pin : 'a t -> int * 'a
(** Pin and return the latest [(version, payload)].  The version cannot be
    reclaimed until a matching {!unpin}.
    @raise Invalid_argument when nothing has been published. *)

val pin_opt : 'a t -> (int * 'a) option
(** {!pin}, or [None] when nothing has been published. *)

val unpin : 'a t -> int -> unit
(** Release one pin on [version]; reclaims it right away when it is
    superseded and this was its last pin.
    @raise Invalid_argument on an unknown, reclaimed, or unpinned
    version. *)

val latest_version : 'a t -> int option

val live_versions : 'a t -> int list
(** Currently retained versions, ascending. *)

val stats : 'a t -> stats

(** Flat page-resident rows (DESIGN §12): one growable [Bytes] buffer per
    page plus a slot directory of row offsets.  Rows are self-describing and
    relocatable ([len:u32][tid:i64][arity:u16][cells arity x 9B][varlen]);
    cell tags match the WAL codec ({!Codec}).  Fixed-width cells give O(1)
    column access, and comparisons / key strings are computed straight off
    the buffer without boxing a {!Value.t}.

    A [Flat.t] models the payload of one simulated disk page; the metered
    page I/O discipline lives above, in the storage engines. *)

type t

val create : ?hint:int -> unit -> t
(** Empty page; [hint] is the initial buffer capacity in bytes. *)

val length : t -> int
(** Number of live rows (slots). *)

val byte_size : t -> int
(** Live row bytes (excluding garbage from removals/replacements). *)

val clear : t -> unit

(** {1 Slot edits}

    Slots are dense indices [0 .. length-1]; edits shift later slots, exactly
    like list insertion/removal, and trigger in-page compaction when dead
    bytes outgrow live bytes. *)

val append : t -> Tuple.t -> int
(** Encode the tuple after the last slot; returns its slot index. *)

val insert_at : t -> int -> Tuple.t -> unit
(** Encode the tuple at slot [i], shifting slots [i..] up by one. *)

val remove_at : t -> int -> unit

val replace_at : t -> int -> Tuple.t -> unit
(** Re-encode slot [i] in place (the row's bytes are rewritten; its slot
    index is unchanged). *)

val truncate : t -> int -> unit
(** Drop slots [n..]. *)

val copy_row : src:t -> int -> dst:t -> unit
(** Blit slot [i] of [src] onto the end of [dst] (rows are relocatable). *)

(** {1 Row accessors} *)

val tid_at : t -> int -> int
val arity_at : t -> int -> int

val cell_value : t -> int -> int -> Value.t
(** [cell_value p slot col] boxes one cell.
    @raise Invalid_argument on slot/column out of range. *)

val cell_int : t -> int -> int -> int
(** Unboxed read of an [Int] cell. @raise Invalid_argument otherwise. *)

val cell_int_or : t -> int -> int -> default:int -> int
(** Unboxed read of an [Int] cell; any other cell reads as [default] (the
    Hr pair-id decode). *)

val cell_bool_or_false : t -> int -> int -> bool
(** [true] iff the cell is [Bool true] (non-Bool cells read as [false], the
    Hr marker-decode convention). *)

(** {1 Comparisons}

    All three replicate {!Value.compare} exactly (including Int/Float mixed
    numeric comparison) without boxing the cell(s). *)

val compare_cell_value : t -> int -> int -> Value.t -> int
(** [compare_cell_value p slot col v = Value.compare cell v]. *)

val compare_cells : t -> int -> int -> t -> int -> int -> int
(** [compare_cells pa sa ca pb sb cb = Value.compare cell_a cell_b]. *)

(** {1 Key strings} *)

val row_value_key : t -> int -> string
(** Equals [Tuple.value_key] of the materialized row. *)

(** {1 Materialization — the sanctioned boxing boundary} *)

val materialize : t -> int -> Tuple.t

val materialize_prefix : t -> int -> int -> tid:int -> Tuple.t
(** First [n] cells under the given tid (Hr entries strip their three
    bookkeeping columns this way). *)

val counted_row : t -> int -> Tuple.t * int
(** A stored view row (its fields plus a trailing [Int] count, DESIGN §12.3)
    as the answer pair: the first [arity - 1] cells under the row's own tid,
    and the count.  One slot lookup; the only allocations are the pair, the
    tuple, its cell array and the boxed cells.
    @raise Invalid_argument if the row is empty or the last cell is not an
    [Int]. *)

val project : t -> int -> int array -> tid:int -> Tuple.t
(** The cells at [positions] (in order) under the given tid — a fused
    [Tuple.project]+[Tuple.with_tid] with a single allocation per survivor. *)

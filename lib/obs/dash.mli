(** Dashboard snapshots: a plain, serializable summary of a serving run at
    one instant, plus an ASCII renderer for `vmperf top --live` and
    `vmperf serve --dashboard`.

    The serving writer emits a snapshot every few epochs (from its own
    counters, the shared query counter, and its private sketch/ring — no
    cross-domain reads of mutable state), and the coordinator emits one
    final snapshot post-join with the merged view.  Snapshots are written
    as machine-readable JSON ({!to_json}) so CI can validate them, and
    rendered as a refreshing ASCII panel ({!render}) that keeps short
    per-key and TPS/QPS histories for sparklines. *)

type category = { c_name : string; c_meter_ms : float; c_metric_ms : float }
(** One cost category: the meter's view vs the metrics registry's mirror. *)

type hot = { h_key : string; h_count : int; h_err : int }

type ring_stat = { rs_label : string; rs_appended : int; rs_dropped : int }

type snapshot = {
  d_seq : int;  (** Frame number, 0-based. *)
  d_final : bool;  (** True for the one post-join snapshot. *)
  d_strategy : string;
  d_wall_s : float;
  d_txns : int;
  d_queries : int;
  d_epochs : int;
  d_tps : float;
  d_qps : float;
  d_txn_p50_us : float;
  d_txn_p95_us : float;
  d_txn_p99_us : float;
  d_query_p50_us : float;
  d_query_p95_us : float;
  d_query_p99_us : float;
      (** Query quantiles are only known post-join (reader-private
          latencies); mid-run frames carry 0. *)
  d_modeled_ms : float;  (** Cumulative modeled cost, excluding Base. *)
  d_categories : category list;
  d_hot_keys : hot list;
  d_key_total : int;
  d_key_distinct : float;
  d_key_skew : float;
  d_flight : ring_stat list;
  d_gauges : (string * float) list;
      (** Selected registry gauges (A/D file, MVCC epochs);
          populated only on the final snapshot. *)
}

val to_json : snapshot -> string
(** One JSON object (single line) with every field above. *)

type view
(** Mutable render state: remembers recent TPS/QPS and per-key counts so
    successive frames can show sparklines. *)

val view : ?width:int -> unit -> view
(** [width] (default 32) is the sparkline history length. *)

val render : view -> snapshot -> string
(** Render one frame, updating the view's histories.  Pure ASCII; the
    caller decides whether to clear the screen between frames. *)

(** Online materialization advisor for a fleet DAG (DESIGN §14.4).

    Each DAG node is either {e materialized} (owns stored state, pays
    maintenance I/O per relevant delta, answers member queries cheaply) or
    {e transient} (free to maintain, answers by scanning its nearest
    materialized ancestor).  The advisor keeps exponentially-decayed
    per-node query and delta rates — the same estimator family as
    [Wstats] — and at every decision point scores the per-window benefit of
    being materialized:

    [score = qr·(q_trans − q_mat) − ar·apply_mat]

    where [qr]/[ar] are the decayed per-window query/relevant-delta rates
    and the costs are the engine's modeled estimates.  A transient node is
    promoted when the score clears a hysteresis margin {e and} the one-time
    build cost amortizes within [horizon] windows; a materialized node is
    demoted when the score is negative past the same margin.

    A window is [decide_every] fleet queries, however many nodes each
    query credits.  The rates remember as far back as the break-even test
    looks ahead: the decay weight is [2/(horizon+1)], the EWMA whose centre
    of mass matches a [horizon]-window average, and each rate is divided by
    [1 − (1 − α)^w] after [w] windows so that a cold start is not read as a
    near-zero rate.  A decision point flips one node at a time, the largest
    per-window benefit first, and re-prices the others after each flip, so
    a node is judged on the prices its neighbours' flips leave behind.
    Hysteresis + a minimum-evidence floor (the [Controller]'s flap guards)
    keep the advisor from oscillating on noisy workloads. *)

type config = {
  decide_every : int;  (** fleet queries per window, i.e. between decision points *)
  min_evidence : float;  (** per-window ops (queries + deltas) a node needs before it may flip *)
  hysteresis : float;  (** relative margin a switch must clear *)
  horizon : float;
      (** windows over which a build cost must amortize, and the length of
          the rate memory *)
}

val default_config : config
(** [{ decide_every = 8; min_evidence = 1.; hysteresis = 0.15; horizon = 20. }] *)

type costs = {
  qc_mat : float;  (** modeled cost of one member query if materialized *)
  qc_trans : float;  (** modeled cost of one member query if transient *)
  apply_mat : float;  (** modeled cost per relevant delta if materialized *)
  build : float;  (** one-time cost of materializing now *)
}

type decision = Promote | Demote

type verdict = {
  v_node : int;
  v_decision : decision;
  v_score : float;  (** per-window benefit of being materialized *)
  v_query_rate : float;  (** bias-corrected queries per window *)
  v_delta_rate : float;  (** bias-corrected relevant deltas per window *)
  v_costs : costs;  (** the prices the verdict was judged on *)
  v_margin : float;  (** hysteresis margin the score cleared *)
}

type t

val create : ?config:config -> n_nodes:int -> unit -> t
(** @raise Invalid_argument on a non-positive node count or invalid config. *)

val config : t -> config

val note_query : t -> int list -> unit
(** Record one fleet query, crediting every node of the given chain: the
    queried node and, when it is transient, each ancestor its answer flows
    through up to the one that serves it.  The window advances by one
    whatever the chain's length. *)

val decision_due : t -> bool
(** [decide_every] fleet queries have accrued since the last {!decide}. *)

val decide :
  t ->
  materialized:(int -> bool) ->
  applied:(int -> int) ->
  costs_of:(int -> costs) ->
  flip:(verdict -> unit) ->
  unit
(** Close the window: fold the window's per-node query counts and the
    engine-reported relevant-delta counts ([applied]) into the decayed
    rates.  Then, while some node's verdict is not to stay, hand the one
    with the largest per-window benefit to [flip] — which must carry it
    out, so that [materialized] and [costs_of] see it — and judge the
    remaining nodes again.  A node flips at most once per decision point.
    Deterministic: ties go to the lower node index. *)

val queries_in_window : t -> int
val node_query_rate : t -> int -> float
(** Bias-corrected decayed queries per window. *)

val node_delta_rate : t -> int -> float
(** Bias-corrected decayed relevant deltas per window. *)

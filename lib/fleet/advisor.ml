type config = { decide_every : int; min_evidence : float; hysteresis : float; horizon : float }

let default_config = { decide_every = 8; min_evidence = 1.; hysteresis = 0.15; horizon = 20. }

type costs = { qc_mat : float; qc_trans : float; apply_mat : float; build : float }

type decision = Promote | Demote

type verdict = {
  v_node : int;
  v_decision : decision;
  v_score : float;
  v_query_rate : float;
  v_delta_rate : float;
  v_costs : costs;
  v_margin : float;
}

type nodestat = {
  mutable qw : int;  (** queries this window *)
  mutable qr : float;  (** decayed queries per window, before bias correction *)
  mutable ar : float;  (** decayed relevant deltas per window, before bias correction *)
}

type t = {
  cfg : config;
  alpha : float;  (** weight of the newest window *)
  stats : nodestat array;
  mutable window_queries : int;
  mutable windows : int;  (** windows closed *)
  mutable unbias : float;  (** 1/(1 − (1 − alpha)^windows), 0 before the first window *)
}

let create ?(config = default_config) ~n_nodes () =
  if n_nodes <= 0 then invalid_arg "Advisor.create: no nodes";
  if config.decide_every < 1 then invalid_arg "Advisor.create: decide_every < 1";
  if config.hysteresis < 0. then invalid_arg "Advisor.create: negative hysteresis";
  if not (config.horizon > 0.) then invalid_arg "Advisor.create: non-positive horizon";
  {
    cfg = config;
    alpha = 2. /. (config.horizon +. 1.);
    stats = Array.init n_nodes (fun _ -> { qw = 0; qr = 0.; ar = 0. });
    window_queries = 0;
    windows = 0;
    unbias = 0.;
  }

let config t = t.cfg

let note_query t chain =
  List.iter (fun node -> t.stats.(node).qw <- t.stats.(node).qw + 1) chain;
  t.window_queries <- t.window_queries + 1

let decision_due t = t.window_queries >= t.cfg.decide_every

let queries_in_window t = t.window_queries
let node_query_rate t i = t.stats.(i).qr *. t.unbias
let node_delta_rate t i = t.stats.(i).ar *. t.unbias

(* [Some verdict] when node [i] should flip at today's prices. *)
let judge t ~materialized ~costs_of i =
  let qr = node_query_rate t i and ar = node_delta_rate t i in
  if qr +. ar < t.cfg.min_evidence then None
  else begin
    let c = costs_of i in
    let score = (qr *. (c.qc_trans -. c.qc_mat)) -. (ar *. c.apply_mat) in
    let verdict v_decision v_margin =
      Some
        { v_node = i; v_decision; v_score = score; v_query_rate = qr; v_delta_rate = ar; v_costs = c; v_margin }
    in
    if materialized i then begin
      let margin = t.cfg.hysteresis *. ((qr *. c.qc_mat) +. (ar *. c.apply_mat)) in
      if score < -.margin then verdict Demote margin else None
    end
    else begin
      let margin = t.cfg.hysteresis *. qr *. c.qc_trans in
      if score > margin && score *. t.cfg.horizon >= c.build then verdict Promote margin else None
    end
  end

let benefit v = Float.abs v.v_score

let decide t ~materialized ~applied ~costs_of ~flip =
  let a = t.alpha in
  Array.iteri
    (fun i st ->
      st.qr <- (a *. float_of_int st.qw) +. ((1. -. a) *. st.qr);
      st.ar <- (a *. float_of_int (applied i)) +. ((1. -. a) *. st.ar);
      st.qw <- 0)
    t.stats;
  t.window_queries <- 0;
  t.windows <- t.windows + 1;
  (* The EWMA starts at 0, so after w windows its weights sum to
     1 − (1 − a)^w, not 1: dividing by that sum unbiases it. *)
  t.unbias <- 1. /. (1. -. ((1. -. a) ** float_of_int t.windows));
  let flipped = Array.make (Array.length t.stats) false in
  let rec next () =
    let best = ref None in
    Array.iteri
      (fun i done_ ->
        if not done_ then
          match judge t ~materialized ~costs_of i with
          | Some v -> (
              match !best with Some b when benefit b >= benefit v -> () | _ -> best := Some v)
          | None -> ())
      flipped;
    match !best with
    | None -> ()
    | Some v ->
        flipped.(v.v_node) <- true;
        flip v;
        next ()
  in
  next ()

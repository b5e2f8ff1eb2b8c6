open Vmat_storage
open Vmat_util
open Vmat_view
open Vmat_cost

module Adaptive = Vmat_adaptive.Adaptive

type model1_strategy =
  [ `Deferred | `Immediate | `Clustered | `Unclustered | `Sequential | `Recompute | `Adaptive ]

type model2_strategy = [ `Deferred | `Immediate | `Loopjoin ]

type model3_strategy = [ `Deferred | `Immediate | `Recompute ]

let scale (p : Params.t) s =
  if not (s > 0. && s <= 1.) then invalid_arg "Experiment.scale: factor must be in (0, 1]";
  { p with Params.n_tuples = Float.max 100. (Float.round (p.n_tuples *. s)) }

let ad_buckets_for (p : Params.t) =
  let u = Params.updates_per_query p in
  max 1 (int_of_float (ceil (2. *. u /. Params.tuples_per_page p)))

let geometry_of (p : Params.t) =
  {
    Strategy.page_bytes = int_of_float p.page_bytes;
    index_entry_bytes = int_of_float p.index_bytes;
  }

let ints (p : Params.t) =
  ( int_of_float p.n_tuples,
    int_of_float (Float.round p.k_updates),
    int_of_float p.l_per_txn,
    int_of_float p.q_queries )

(* One execution context per strategy run, all pinned to the same
   [first_tid] (the next tid after dataset/stream generation), so every
   strategy sees identical tuple identities regardless of run order.  This is
   what makes back-to-back in-process measurements bit-identical. *)
let fresh_ctx ?sanitize ?fault (p : Params.t) ~first_tid =
  Ctx.create ~geometry:(geometry_of p) ~c1:p.c1 ~c2:p.c2 ~c3:p.c3 ~first_tid ?sanitize
    ?fault ()

let amount_col = 2 (* R(id, pval, amount, note) *)

let model1_stream ~rng ~tids ~(p : Params.t) (dataset : Dataset.model1) =
  let _, k, l, q = ints p in
  let tuples = Array.of_list dataset.m1_tuples in
  let width = p.f *. p.fv in
  Stream.generate ~rng ~tuples
    ~mutate:
      (Stream.mutate_column ~tids ~col:amount_col (fun rng ->
           Value.Float (Float.of_int (Rng.int rng 1000))))
    ~k ~l ~q
    ~query_of:(Stream.range_query_of ~lo_max:(p.f -. width) ~width)

type model1_setup = {
  ms_dataset : Dataset.model1;
  ms_ops : Stream.op list;
  ms_first_tid : int;
}

(* The dataset/stream half of [measure_model1], split out so external
   drivers (the WAL crash-equivalence harness, `vmperf crash-test`) can
   replay the exact same operation sequence themselves. *)
let model1_setup ?(seed = 42) (p : Params.t) =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let n, _, _, _ = ints p in
  let dataset =
    Dataset.make_model1 ~rng ~tids ~n ~f:p.f ~s_bytes:(int_of_float p.tuple_bytes)
  in
  let ops = model1_stream ~rng ~tids ~p dataset in
  { ms_dataset = dataset; ms_ops = ops; ms_first_tid = Tuple.peek tids }

type wrap =
  ctx:Ctx.t -> initial:Tuple.t list -> Strategy.t -> Strategy.t

let apply_wrap wrap ~ctx ~initial strategy =
  match wrap with None -> strategy | Some (w : wrap) -> w ~ctx ~initial strategy

(* The engine half of a Model-1 measurement, split out so external drivers
   (the serving subsystem, DESIGN §10) can build the exact strategy a
   measured run would, over the exact same setup. *)
let model1_env ?sanitize (p : Params.t) (s : model1_setup) =
  let ctx = fresh_ctx ?sanitize p ~first_tid:s.ms_first_tid in
  {
    Strategy_sp.ctx;
    view = s.ms_dataset.Dataset.m1_view;
    initial = s.ms_dataset.Dataset.m1_tuples;
    ad_buckets = ad_buckets_for p;
  }

let model1_strategy_of (env : Strategy_sp.env) (which : model1_strategy) =
  match which with
  | `Deferred -> Strategy_sp.deferred env
  | `Immediate -> Strategy_sp.immediate env
  | `Clustered -> Strategy_sp.qmod_clustered env
  | `Unclustered -> Strategy_sp.qmod_unclustered env
  | `Sequential -> Strategy_sp.qmod_sequential env
  | `Recompute -> Strategy_sp.recompute env
  | `Adaptive -> Adaptive.strategy (Adaptive.wrap env)

(* Cluster keys an operation touches, quantized into the same 64-bucket
   [0, 1) key space the serving sketches use (Sketch.bucket_key), so fleet
   tooling can compare offline and serving heat maps directly.  Model 1:
   R(id, pval, amount, note), pval is the cluster column. *)
let model1_keys_of op =
  let pval_col = 1 in
  let bucket = function
    | Value.Float x -> Vmat_obs.Sketch.bucket_key ~cells:64 ~lo:0. ~hi:1. x
    | v -> Value.to_string v
  in
  match op with
  | Stream.Txn changes ->
      List.filter_map
        (fun (c : Strategy.change) ->
          match (c.Strategy.after, c.Strategy.before) with
          | Some t, _ | None, Some t -> Some (bucket (Tuple.get t pval_col))
          | None, None -> None)
        changes
  | Stream.Query q -> [ bucket q.Strategy.q_lo ]

let measure_model1 ?(seed = 42) ?recorder ?sanitize ?wrap ?(track_keys = false)
    (p : Params.t) strategies =
  let setup = model1_setup ~seed p in
  let keys_of = if track_keys then Some model1_keys_of else None in
  let run which =
    let env = model1_env ?sanitize p setup in
    let ctx = env.Strategy_sp.ctx in
    let strategy = model1_strategy_of env which in
    let strategy = apply_wrap wrap ~ctx ~initial:setup.ms_dataset.Dataset.m1_tuples strategy in
    let m = Runner.run ?recorder ?keys_of ~ctx ~strategy ~ops:setup.ms_ops () in
    (m.Runner.strategy_name, m)
  in
  List.map run strategies

type phase_spec = { sp_k : int; sp_l : int; sp_q : int; sp_fv : float }

type phased_result = {
  ph_name : string;
  ph_per_phase : Runner.measurement list;
  ph_overall : Runner.measurement;
  ph_adaptive : Adaptive.t option;
}

let measure_phased ?(seed = 42) ?recorder ?sanitize ?wrap ?adaptive_config
    ?adaptive_candidates ?adaptive_initial (p : Params.t) ~phases strategies =
  if List.is_empty phases then invalid_arg "Experiment.measure_phased: no phases";
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let n, _, _, _ = ints p in
  let dataset =
    Dataset.make_model1 ~rng ~tids ~n ~f:p.f ~s_bytes:(int_of_float p.tuple_bytes)
  in
  let tuples = Array.of_list dataset.m1_tuples in
  let phase_streams =
    List.map
      (fun { sp_k; sp_l; sp_q; sp_fv } ->
        let width = p.f *. sp_fv in
        {
          Stream.ph_k = sp_k;
          ph_l = sp_l;
          ph_q = sp_q;
          ph_mutate =
            Stream.mutate_column ~tids ~col:amount_col (fun rng ->
                Value.Float (Float.of_int (Rng.int rng 1000)));
          ph_query_of = Stream.range_query_of ~lo_max:(p.f -. width) ~width;
        })
      phases
  in
  let ops_phases = Stream.generate_phased ~rng ~tuples phase_streams in
  let first_tid = Tuple.peek tids in
  let run which =
    let ctx = fresh_ctx ?sanitize p ~first_tid in
    let env =
      {
        Strategy_sp.ctx;
        view = dataset.m1_view;
        initial = dataset.m1_tuples;
        ad_buckets = ad_buckets_for p;
      }
    in
    let strategy, handle =
      match which with
      | `Deferred -> (Strategy_sp.deferred env, None)
      | `Immediate -> (Strategy_sp.immediate env, None)
      | `Clustered -> (Strategy_sp.qmod_clustered env, None)
      | `Unclustered -> (Strategy_sp.qmod_unclustered env, None)
      | `Sequential -> (Strategy_sp.qmod_sequential env, None)
      | `Recompute -> (Strategy_sp.recompute env, None)
      | `Adaptive ->
          let a =
            Adaptive.wrap ?config:adaptive_config ?candidates:adaptive_candidates
              ?initial_kind:adaptive_initial env
          in
          (Adaptive.strategy a, Some a)
    in
    let strategy = apply_wrap wrap ~ctx ~initial:dataset.m1_tuples strategy in
    let per_phase, overall = Runner.run_phases ?recorder ~ctx ~strategy ~phases:ops_phases () in
    {
      ph_name = overall.Runner.strategy_name;
      ph_per_phase = per_phase;
      ph_overall = overall;
      ph_adaptive = handle;
    }
  in
  List.map run strategies

let c_col = 3 (* R1(id, pval, jkey, c) *)

let measure_model2 ?(seed = 42) ?recorder ?sanitize ?wrap (p : Params.t) strategies =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let n, k, l, q = ints p in
  let dataset =
    Dataset.make_model2 ~rng ~tids ~n ~f:p.f ~f_r2:p.f_r2
      ~s_bytes:(int_of_float p.tuple_bytes)
  in
  let tuples = Array.of_list dataset.m2_left_tuples in
  let width = p.f *. p.fv in
  let ops =
    Stream.generate ~rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids ~col:c_col (fun rng ->
             Value.Str (Printf.sprintf "c%06d" (Rng.int rng 1_000_000))))
      ~k ~l ~q
      ~query_of:(Stream.range_query_of ~lo_max:(p.f -. width) ~width)
  in
  let r2_buckets = max 1 (int_of_float (ceil (p.f_r2 *. Params.blocks p))) in
  let first_tid = Tuple.peek tids in
  let run which =
    let ctx = fresh_ctx ?sanitize p ~first_tid in
    let env =
      {
        Strategy_join.ctx;
        view = dataset.m2_view;
        initial_left = dataset.m2_left_tuples;
        initial_right = dataset.m2_right_tuples;
        ad_buckets = ad_buckets_for p;
        r2_buckets;
      }
    in
    let strategy =
      match which with
      | `Deferred -> Strategy_join.deferred env
      | `Immediate -> Strategy_join.immediate env
      | `Loopjoin -> Strategy_join.qmod_loopjoin env
    in
    (* The change stream only touches the left relation, so the durable
       wrapper's catalog seeds from it. *)
    let strategy = apply_wrap wrap ~ctx ~initial:dataset.m2_left_tuples strategy in
    let m = Runner.run ?recorder ~ctx ~strategy ~ops () in
    (m.Runner.strategy_name, m)
  in
  List.map run strategies

let measure_model3 ?(seed = 42) ?recorder ?sanitize ?wrap ?(kind = `Sum "amount")
    (p : Params.t) strategies =
  let rng = Rng.create seed in
  let tids = Tuple.source () in
  let n, _, _, _ = ints p in
  let dataset =
    Dataset.make_model3 ~rng ~tids ~n ~f:p.f ~s_bytes:(int_of_float p.tuple_bytes) ~kind
  in
  let ops =
    model1_stream ~rng ~tids ~p
      {
        Dataset.m1_schema = dataset.m3_schema;
        m1_view = dataset.m3_agg.View_def.a_over;
        m1_tuples = dataset.m3_tuples;
      }
  in
  let first_tid = Tuple.peek tids in
  let run which =
    let ctx = fresh_ctx ?sanitize p ~first_tid in
    let env =
      {
        Strategy_agg.ctx;
        agg = dataset.m3_agg;
        initial = dataset.m3_tuples;
        ad_buckets = ad_buckets_for p;
      }
    in
    let strategy =
      match which with
      | `Deferred -> Strategy_agg.deferred env
      | `Immediate -> Strategy_agg.immediate env
      | `Recompute -> Strategy_agg.recompute env
    in
    let strategy = apply_wrap wrap ~ctx ~initial:dataset.m3_tuples strategy in
    let m = Runner.run ?recorder ~ctx ~strategy ~ops () in
    (m.Runner.strategy_name, m)
  in
  List.map run strategies

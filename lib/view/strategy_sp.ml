open Vmat_storage
open Vmat_relalg
module Btree = Vmat_index.Btree
module Hr = Vmat_hypo.Hr

type env = {
  ctx : Ctx.t;
  view : View_def.sp;
  initial : Tuple.t list;
  ad_buckets : int;
}

let meter env = Ctx.meter env.ctx
let disk env = Ctx.disk env.ctx
let geometry env = Ctx.geometry env.ctx
let tids env = Ctx.tids env.ctx
let sp_output env tuple = View_def.sp_output ~tids:(tids env) env.view tuple

(* The base column the view is clustered on (the predicate column). *)
let base_cluster_col env = env.view.sp_positions.(env.view.sp_cluster_out)

let make_base_btree env =
  Strategy.base_relation env.ctx env.view.sp_base ~key_col:(base_cluster_col env) env.initial

let make_materialized env =
  Strategy.stored_view env.ctx ~name:env.view.sp_name ~schema:env.view.sp_out_schema
    ~cluster_col:env.view.sp_cluster_out
    (Delta.recompute_sp ~tids:(tids env) env.view env.initial)

let maintain env mat action tuple = Materialized.apply mat action (sp_output env tuple)

let make_screen env =
  Screen.create ~meter:(meter env) ~view_name:env.view.sp_name ~pred:env.view.sp_pred ()

let logical_view_of_tuples env tuples =
  Delta.recompute_sp ~tids:(tids env) env.view tuples

(* Sanitizer: refresh ≡ recompute.  After an incremental maintenance step the
   stored view must equal the from-scratch recomputation over the current
   base contents — the semantic core of every materialization strategy, and
   exactly the kind of drift (a missed marker, a stale A/D entry, a wrong
   cancellation) that survives unit tests on toy workloads.  Everything here
   is observer-free: the base is read unmetered, and output tids come from a
   throwaway source (minting them from the context source would shift every
   subsequent tid the engine hands out). *)
let check_refresh_equals_recompute env ~name base mat =
  let san = Ctx.sanitizer env.ctx in
  if Sanitize.sample san ~rule:"refresh-equals-recompute" then
    Sanitize.check san ~rule:"refresh-equals-recompute"
      (fun () ->
        let expect =
          Delta.recompute_sp ~tids:(Tuple.source ~first:0 ()) env.view (Strategy.base_tuples base)
        in
        Bag.equal (Materialized.to_bag_unmetered mat) expect)
      ~detail:(fun () ->
        Printf.sprintf
          "%s: incrementally maintained view %s diverged from the from-scratch \
           recomputation over current base contents"
          name env.view.sp_name)

(* ------------------------------------------------------------------ *)
(* Deferred view maintenance                                           *)
(* ------------------------------------------------------------------ *)

(* Shared machinery of the hypothetical-relation strategies: [deferred]
   refreshes just before each query; [deferred_periodic] additionally
   refreshes every [every] transactions (strictly more I/O, by the Yao
   triangle inequality -- the paper's section-4 argument for refreshing only
   on demand); [snapshot] refreshes ONLY every [period] transactions and
   serves possibly-stale answers in between, like the database snapshots of
   [Adib80, Lind86]. *)

type refresh_policy =
  | On_demand
  | Periodic_and_on_demand of int
  | Periodic_only of int

let deferred_with_policy_internal ?layout ~policy ~name env =
  let m = meter env in
  let base = make_base_btree env in
  let hr =
    Strategy.hypothetical ?layout env.ctx ~base ~schema:env.view.sp_base ~ad_buckets:env.ad_buckets
  in
  let mat = make_materialized env in
  let screen = make_screen env in
  let reads = View_def.sp_reads env.view in
  let mark = Screen.screen screen in
  let delete = maintain env mat Delete and insert = maintain env mat Insert in
  let refresh ?(category = Cost_meter.Refresh) () =
    Strategy.refresh_span m ~view:env.view.sp_name (fun () ->
        let net =
          Cost_meter.with_category m category (fun () ->
              let net = Hr.drain hr ~delete ~insert in
              Materialized.flush mat;
              net)
        in
        Hr.reset hr net;
        check_refresh_equals_recompute env ~name base mat)
  in
  let txns_since_refresh = ref 0 in
  let handle_transaction changes =
    List.iter
      (fun (change : Strategy.change) ->
        match (change.before, change.after) with
        | Some old_tuple, Some new_tuple
          when Screen.readily_ignorable ~reads ~old_tuple ~new_tuple ->
            Hr.apply_ignorable hr ~old_tuple ~new_tuple
        | before, after -> Hr.apply hr ~mark ~before ~after)
      changes;
    Hr.end_transaction hr;
    incr txns_since_refresh;
    match policy with
    | Periodic_and_on_demand every | Periodic_only every ->
        if !txns_since_refresh >= every then begin
          refresh ();
          txns_since_refresh := 0
        end
    | On_demand -> ()
  in
  let answer_query q =
    (match policy with
    | On_demand | Periodic_and_on_demand _ -> refresh ()
    | Periodic_only _ -> () (* snapshots serve the last refreshed state *));
    Materialized.answer mat ~meter:(meter env) ~lo:q.Strategy.q_lo ~hi:q.q_hi
  in
  ( {
      Strategy.name;
      handle_transaction;
      answer_query;
      scalar_query = Strategy.no_scalar;
      view_contents =
        (fun () ->
          let bag = Materialized.to_bag_unmetered mat in
          Hr.pending hr
            ~delete:(fun tuple -> ignore (Bag.remove bag (sp_output env tuple)))
            ~insert:(fun tuple -> ignore (Bag.add bag (sp_output env tuple)));
          bag);
    },
    refresh,
    hr )

let deferred_with_policy ?layout ~policy ~name env =
  let strategy, _refresh, _hr =
    deferred_with_policy_internal ?layout ~policy ~name env
  in
  strategy

let deferred env = deferred_with_policy ~policy:On_demand ~name:"deferred" env

(* The deferred strategy plus a handle on its hypothetical relation, for
   callers that must see the differential state itself rather than the
   answers it induces: the WAL checkpoint manager snapshots the net A/D
   sets (DESIGN §9). *)
let deferred_introspect env =
  let strategy, _refresh, hr =
    deferred_with_policy_internal ~policy:On_demand ~name:"deferred" env
  in
  (strategy, hr)

(* Asynchronous refresh (§4): "if there is idle CPU and disk time available,
   it is likely to be useful to put it to work refreshing views
   asynchronously.  This would improve the response time of view queries in
   some situations since the views would not have to be refreshed first."
   We model idle-time work by refreshing eagerly after every transaction and
   charging that work to the excluded Base category: queries then find the
   view already fresh. *)
let deferred_async env =
  let inner, refresh, _hr =
    deferred_with_policy_internal ~policy:On_demand ~name:"deferred-async" env
  in
  {
    inner with
    Strategy.handle_transaction =
      (fun changes ->
        inner.Strategy.handle_transaction changes;
        (* the idle-time refresh: same work, charged off the critical path *)
        refresh ~category:Cost_meter.Base ());
  }

let deferred_split_ad env =
  deferred_with_policy ~layout:Hr.Split ~policy:On_demand ~name:"deferred-split-ad" env

let deferred_periodic ~every env =
  if every < 1 then invalid_arg "Strategy_sp.deferred_periodic: every must be >= 1";
  deferred_with_policy
    ~policy:(Periodic_and_on_demand every)
    ~name:(Printf.sprintf "deferred-every-%d" every)
    env

let snapshot ~period env =
  if period < 1 then invalid_arg "Strategy_sp.snapshot: period must be >= 1";
  deferred_with_policy ~policy:(Periodic_only period)
    ~name:(Printf.sprintf "snapshot-%d" period)
    env

(* ------------------------------------------------------------------ *)
(* Immediate view maintenance                                          *)
(* ------------------------------------------------------------------ *)

let immediate env =
  let base = make_base_btree env in
  let mat = make_materialized env in
  let screen = make_screen env in
  let reads = View_def.sp_reads env.view in
  let handle_transaction changes =
    Strategy.immediate_step (meter env) ~view:env.view.sp_name ~base
      ~mark:(Screen.screen_change screen ~reads)
      ~delete:(maintain env mat Delete) ~insert:(maintain env mat Insert)
      ~flush:(fun () -> Materialized.flush mat)
      changes;
    check_refresh_equals_recompute env ~name:"immediate" base mat
  in
  {
    Strategy.name = "immediate";
    handle_transaction;
    answer_query =
      (fun q -> Materialized.answer mat ~meter:(meter env) ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    scalar_query = Strategy.no_scalar;
    view_contents = (fun () -> Materialized.to_bag_unmetered mat);
  }

(* ------------------------------------------------------------------ *)
(* Query modification                                                  *)
(* ------------------------------------------------------------------ *)

let qmod_answer env ~compiled examined (q : Strategy.query) =
  (* [examined] aims a page cursor at base rows; only survivors of the
     modified query are boxed (and mint an output tid). *)
  let out = ref [] in
  Strategy.scan_modified (meter env) ~compiled ~col:(base_cluster_col env) ~lo:q.q_lo
    ~hi:q.q_hi examined (fun view ->
      out := (View_def.sp_output_view ~tids:(tids env) env.view view, 1) :: !out);
  List.rev !out

let qmod_clustered env =
  let m = meter env in
  let base = make_base_btree env in
  let compiled = Predicate.compile env.view.sp_pred in
  let answer_query (q : Strategy.query) =
    Cost_meter.with_category m Cost_meter.Query (fun () ->
        let result =
          qmod_answer env ~compiled (Btree.range_views base ~lo:q.q_lo ~hi:q.q_hi) q
        in
        Buffer_pool.invalidate (Btree.pool base);
        result)
  in
  {
    Strategy.name = "qmod-clustered";
    handle_transaction = Strategy.write_base m base;
    answer_query;
    scalar_query = Strategy.no_scalar;
    view_contents = (fun () -> logical_view_of_tuples env (Strategy.base_tuples base));
  }

module Secondary_key = struct
  type t = Value.t * int

  let compare (v1, t1) (v2, t2) =
    match Value.compare v1 v2 with 0 -> Int.compare t1 t2 | c -> c
end

module Secondary = Map.Make (Secondary_key)

let qmod_unclustered env =
  let m = meter env in
  let heap =
    Heap_file.create ~disk:(disk env) ~page_bytes:(geometry env).Strategy.page_bytes
      env.view.sp_base
  in
  let index = ref Secondary.empty in
  let compiled = Predicate.compile env.view.sp_pred in
  let cluster_col = base_cluster_col env in
  let key_of tuple = (Tuple.get tuple cluster_col, Tuple.tid tuple) in
  let add tuple =
    let locator = Heap_file.insert heap tuple in
    index := Secondary.add (key_of tuple) locator !index
  in
  List.iter add env.initial;
  Buffer_pool.invalidate (Heap_file.pool heap);
  let handle_transaction changes =
    Cost_meter.with_category m Cost_meter.Base (fun () ->
        List.iter
          (fun (change : Strategy.change) ->
            Option.iter
              (fun tuple ->
                let key = key_of tuple in
                (match Secondary.find_opt key !index with
                | Some locator -> Heap_file.delete heap locator
                | None -> invalid_arg "qmod_unclustered: deleting unknown tuple");
                index := Secondary.remove key !index)
              change.before;
            Option.iter add change.after)
          changes;
        Buffer_pool.invalidate (Heap_file.pool heap))
  in
  let answer_query (q : Strategy.query) =
    Cost_meter.with_category m Cost_meter.Query (fun () ->
        (* Walk the secondary index over the query range; each entry costs a
           (buffered) heap page read — the unclustered y(N, b, N f fv)
           behaviour.  The secondary index itself is assumed resident, as in
           the paper's generous treatment of access paths. *)
        let view = Tuple_view.on (Flat.create ()) 0 in
        let examined f =
          let seq = Secondary.to_seq_from (q.q_lo, Int.min_int) !index in
          Seq.iter
            (fun ((v, _), locator) ->
              if Value.compare v q.q_hi <= 0 then begin
                Heap_file.view_at heap locator view;
                f view
              end)
            (Seq.take_while (fun ((v, _), _) -> Value.compare v q.q_hi <= 0) seq)
        in
        let result = qmod_answer env ~compiled examined q in
        Buffer_pool.invalidate (Heap_file.pool heap);
        result)
  in
  {
    Strategy.name = "qmod-unclustered";
    handle_transaction;
    answer_query;
    scalar_query = Strategy.no_scalar;
    view_contents =
      (fun () ->
        let tuples = ref [] in
        Heap_file.iter_unmetered heap (fun tuple -> tuples := tuple :: !tuples);
        logical_view_of_tuples env !tuples);
  }

let qmod_sequential env =
  let m = meter env in
  let heap =
    Heap_file.create ~disk:(disk env) ~page_bytes:(geometry env).Strategy.page_bytes
      env.view.sp_base
  in
  let compiled = Predicate.compile env.view.sp_pred in
  let locators = Hashtbl.create (List.length env.initial) in
  let add tuple = Hashtbl.replace locators (Tuple.tid tuple) (Heap_file.insert heap tuple) in
  List.iter add env.initial;
  Buffer_pool.invalidate (Heap_file.pool heap);
  let handle_transaction changes =
    Cost_meter.with_category m Cost_meter.Base (fun () ->
        List.iter
          (fun (change : Strategy.change) ->
            Option.iter
              (fun tuple ->
                match Hashtbl.find_opt locators (Tuple.tid tuple) with
                | Some locator ->
                    Heap_file.delete heap locator;
                    Hashtbl.remove locators (Tuple.tid tuple)
                | None -> invalid_arg "qmod_sequential: deleting unknown tuple")
              change.before;
            Option.iter add change.after)
          changes;
        Buffer_pool.invalidate (Heap_file.pool heap))
  in
  let answer_query (q : Strategy.query) =
    Cost_meter.with_category m Cost_meter.Query (fun () ->
        let result = qmod_answer env ~compiled (Heap_file.scan_views heap) q in
        Buffer_pool.invalidate (Heap_file.pool heap);
        result)
  in
  {
    Strategy.name = "qmod-sequential";
    handle_transaction;
    answer_query;
    scalar_query = Strategy.no_scalar;
    view_contents =
      (fun () ->
        let tuples = ref [] in
        Heap_file.iter_unmetered heap (fun tuple -> tuples := tuple :: !tuples);
        logical_view_of_tuples env !tuples);
  }

(* ------------------------------------------------------------------ *)
(* Full recompute on potentially-affecting update (Buneman & Clemons)  *)
(* ------------------------------------------------------------------ *)

let recompute env =
  let m = meter env in
  let base = make_base_btree env in
  let mat = make_materialized env in
  let screen = make_screen env in
  let reads = View_def.sp_reads env.view in
  let dirty = ref false in
  let handle_transaction changes =
    Strategy.write_base m base changes;
    List.iter
      (fun change ->
        let marked_old, marked_new = Screen.screen_change screen ~reads change in
        if marked_old = Some true || marked_new = Some true then dirty := true)
      changes
  in
  let refresh_if_needed () =
    if !dirty then begin
      Strategy.refresh_span m ~view:env.view.sp_name ~name:"recompute" @@ fun () ->
      Cost_meter.with_category m Cost_meter.Refresh (fun () ->
          (* Recompute with a clustered scan of the base relation and replace
             the stored copy wholesale. *)
          let tuples = ref [] in
          let lo, hi =
            Strategy.clustered_scan_bounds env.view.sp_pred
              ~cluster_col:(base_cluster_col env)
          in
          Btree.range base ~lo ~hi (fun tuple ->
              Cost_meter.charge_predicate_test m;
              tuples := tuple :: !tuples);
          Buffer_pool.invalidate (Btree.pool base);
          Materialized.rebuild mat (logical_view_of_tuples env !tuples));
      dirty := false
    end
  in
  {
    Strategy.name = "recompute";
    handle_transaction;
    answer_query =
      (fun q ->
        refresh_if_needed ();
        Materialized.answer mat ~meter:(meter env) ~lo:q.Strategy.q_lo ~hi:q.q_hi);
    scalar_query = Strategy.no_scalar;
    view_contents = (fun () -> logical_view_of_tuples env (Strategy.base_tuples base));
  }

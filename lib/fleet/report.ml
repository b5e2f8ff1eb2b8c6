open Vmat_storage
open Vmat_relalg
open Vmat_util
module View_def = Vmat_view.View_def
module Dataset = Vmat_workload.Dataset
module Stream = Vmat_workload.Stream
module Recorder = Vmat_obs.Recorder

type opts = {
  ro_views : int;
  ro_overlap : float;
  ro_subsume : float;
  ro_hetero : float;
  ro_zipf : float;
  ro_n_tuples : int;
  ro_k : int;
  ro_l : int;
  ro_q : int;
  ro_fv : float;
  ro_seed : int;
  ro_ad_buckets : int;
  ro_advisor : Advisor.config option;
  ro_check : bool;
}

let default_opts =
  {
    ro_views = 64;
    ro_overlap = 0.5;
    ro_subsume = 0.25;
    ro_hetero = 0.2;
    ro_zipf = 1.1;
    ro_n_tuples = 2000;
    ro_k = 200;
    ro_l = 8;
    ro_q = 100;
    ro_fv = 0.3;
    ro_seed = 11;
    ro_ad_buckets = 4;
    ro_advisor = Some Advisor.default_config;
    ro_check = true;
  }

type result = {
  r_views : int;
  r_classes : int;
  r_groups : int;
  r_aliases : int;
  r_materialized : int;
  r_refreshes : int;
  r_promotions : int;
  r_demotions : int;
  r_shared_maint_ms : float;
  r_shared_total_ms : float;
  r_isolated_maint_ms : float;
  r_isolated_total_ms : float;
  r_shared_ms_per_delta : float;
  r_isolated_ms_per_delta : float;
  r_maint_speedup : float;
  r_total_speedup : float;
  r_digest : string;
  r_match : bool;
  r_dag : string list;
  r_events : Fleet.event list;
  r_nodes : Fleet.node_info list;
}

let maint_categories = Cost_meter.[ Screen; Hr; Refresh; Migrate ]

let maint_cost meter =
  List.fold_left (fun acc cat -> acc +. Cost_meter.cost meter cat) 0. maint_categories

let bag_of_answer rows =
  let b = Bag.create () in
  List.iter (fun (tuple, count) -> Bag.add_count b tuple count) rows;
  b

(* FNV-1a 64 over a bag's value-sorted (tuple key, count) entries. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let fnv_bag h bag =
  let entries = ref [] in
  Bag.iter bag (fun tuple count -> entries := (Tuple.value_key tuple, count) :: !entries);
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !entries
  in
  List.fold_left (fun h (key, count) -> fnv_string h (Printf.sprintf "%s#%d;" key count)) h entries

let vname v = Printf.sprintf "v%d" v

type inputs = {
  in_base : Schema.t;
  in_views : View_def.sp list;
  in_initial : Tuple.t list;
  in_ops : Stream.fleet_op list;
  in_first_tid : int;
}

let inputs o =
  let gen_rng = Rng.create o.ro_seed in
  let gen_tids = Tuple.source () in
  let dataset =
    Dataset.make_model1 ~rng:gen_rng ~tids:gen_tids ~n:o.ro_n_tuples ~f:0.5 ~s_bytes:100
  in
  let base = dataset.Dataset.m1_schema in
  let spec =
    Spec.overlapping_fleet ~rng:gen_rng ~base ~views:o.ro_views ~overlap:o.ro_overlap
      ~subsume:o.ro_subsume ~hetero:o.ro_hetero ()
  in
  let tuples = Array.of_list dataset.Dataset.m1_tuples in
  let ops =
    Stream.generate_fleet ~rng:gen_rng ~tuples
      ~mutate:
        (Stream.mutate_column ~tids:gen_tids ~col:2 (fun rng ->
             Value.Float (float_of_int (Rng.int rng 1000))))
      ~views:o.ro_views ~zipf_s:o.ro_zipf ~k:o.ro_k ~l:o.ro_l ~q:o.ro_q
      ~query_of:(fun rng v -> Spec.query_of spec ~fv:o.ro_fv rng v)
  in
  {
    in_base = base;
    in_views = spec.Spec.fs_views;
    in_initial = dataset.Dataset.m1_tuples;
    in_ops = ops;
    in_first_tid = Tuple.peek gen_tids;
  }

let run_comparison ?recorder o =
  let { in_base = base; in_views = views; in_initial = initial; in_ops = ops; in_first_tid = first_tid } =
    inputs o
  in
  let fleet_ctx = Ctx.create ~seed:(o.ro_seed + 1) ~first_tid () in
  let fleet_meter = Ctx.meter fleet_ctx in
  (match recorder with Some r -> Cost_meter.set_recorder fleet_meter r | None -> ());
  let fleet =
    Fleet.create ~ctx:fleet_ctx ~base ~views ~initial ~ad_buckets:o.ro_ad_buckets
      ~advisor:o.ro_advisor ()
  in
  Cost_meter.reset fleet_meter;
  (* Each isolated engine is a one-view fleet without an advisor: its own
     base copy, differential file and stored view. *)
  let isolated =
    Array.init o.ro_views (fun i ->
        let ctx = Ctx.create ~seed:(o.ro_seed + 2 + i) ~first_tid () in
        let engine =
          Fleet.create ~ctx ~base ~views:[ List.nth views i ] ~initial ~ad_buckets:o.ro_ad_buckets
            ~advisor:None ()
        in
        Cost_meter.reset (Ctx.meter ctx);
        (engine, Ctx.meter ctx))
  in
  let all_match = ref true in
  List.iter
    (fun op ->
      match op with
      | Stream.Ftxn changes ->
          Fleet.handle_transaction fleet changes;
          Array.iter (fun (engine, _) -> Fleet.handle_transaction engine changes) isolated
      | Stream.Fquery (v, q) ->
          let shared_rows = Fleet.answer_query fleet ~view:(vname v) q in
          let oracle_rows =
            let engine, _ = isolated.(v) in
            Fleet.answer_query engine ~view:(vname v) q
          in
          if o.ro_check && not (Bag.equal (bag_of_answer shared_rows) (bag_of_answer oracle_rows))
          then all_match := false)
    ops;
  let digest = ref fnv_basis in
  for v = 0 to o.ro_views - 1 do
    let shared = Fleet.view_contents fleet ~view:(vname v) in
    digest := fnv_bag !digest shared;
    if o.ro_check then begin
      let engine, _ = isolated.(v) in
      if not (Bag.equal shared (Fleet.view_contents engine ~view:(vname v))) then
        all_match := false
    end
  done;
  let stats = Fleet.stats fleet in
  let shared_maint = maint_cost fleet_meter in
  let shared_total = Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] fleet_meter in
  let isolated_maint =
    Array.fold_left (fun acc (_, m) -> acc +. maint_cost m) 0. isolated
  in
  let isolated_total =
    Array.fold_left
      (fun acc (_, m) -> acc +. Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] m)
      0. isolated
  in
  let deltas = float_of_int (max 1 (o.ro_k * o.ro_l)) in
  let ratio num den = if den > 0. then num /. den else Float.nan in
  (match recorder with Some r -> Fleet.export_metrics fleet r | None -> ());
  {
    r_views = o.ro_views;
    r_classes = stats.Fleet.st_classes;
    r_groups = stats.Fleet.st_groups;
    r_aliases = stats.Fleet.st_aliases;
    r_materialized = stats.Fleet.st_materialized;
    r_refreshes = stats.Fleet.st_refreshes;
    r_promotions = stats.Fleet.st_promotions;
    r_demotions = stats.Fleet.st_demotions;
    r_shared_maint_ms = shared_maint;
    r_shared_total_ms = shared_total;
    r_isolated_maint_ms = isolated_maint;
    r_isolated_total_ms = isolated_total;
    r_shared_ms_per_delta = shared_maint /. deltas;
    r_isolated_ms_per_delta = isolated_maint /. deltas;
    r_maint_speedup = ratio isolated_maint shared_maint;
    r_total_speedup = ratio isolated_total shared_total;
    r_digest = Printf.sprintf "%016Lx" !digest;
    r_match = !all_match;
    r_dag = Dag.describe (Fleet.dag fleet);
    r_events = Fleet.events fleet;
    r_nodes = Fleet.nodes_info fleet;
  }

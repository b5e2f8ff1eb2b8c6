open Vmat_storage
module Btree = Vmat_index.Btree
module Hash_file = Vmat_index.Hash_file
module Recorder = Vmat_obs.Recorder

(* AD entries extend the base tuple with three bookkeeping columns:
   role ("A" or "D"), the original tid, and the marker cell.  The entry
   itself gets a fresh tid so that an append and its cancelling delete can
   coexist in the hash file.  The marker cell holds the screening result
   ([Bool]), or, for both halves of a readily-ignorable modification, the
   pair's id ([Int], the tid of its D entry); a cell has a fixed size, so
   either form costs the same pages. *)

let role_appended = Value.Str "A"
let role_deleted = Value.Str "D"

type layout = Combined | Split

type t = {
  base : Btree.t;
  schema : Schema.t;
  ad : Hash_file.t;  (* combined layout: both roles; split layout: appends *)
  ad_deletes : Hash_file.t option;  (* split layout only *)
  meter : Cost_meter.t;
  tids : Tuple.source;
}

let create ~disk ~tids ~base ~schema ~ad_buckets ~tuples_per_page ?(layout = Combined) () =
  let file suffix buckets =
    Hash_file.create ~disk ~name:(suffix ^ ":" ^ Schema.name schema) ~buckets:(max 1 buckets)
      ~tuples_per_page ~key_col:(Schema.key_index schema) ()
  in
  let ad, ad_deletes =
    match layout with
    | Combined -> (file "ad" ad_buckets, None)
    | Split ->
        (* each file holds half the entries *)
        let half = max 1 ((ad_buckets + 1) / 2) in
        (file "a" half, Some (file "d" half))
  in
  { base; schema; ad; ad_deletes; meter = Disk.meter disk; tids }

(* The file an entry of the given role is stored in. *)
let file_for t role =
  match t.ad_deletes with
  | Some deletes when Value.equal role role_deleted -> deletes
  | _ -> t.ad

let all_files t = t.ad :: Option.to_list t.ad_deletes

let base t = t.base

let encode t tuple ~role ~marker =
  Tuple.make ~tid:(Tuple.next t.tids)
    (Array.append (Tuple.values tuple) [| role; Value.Int (Tuple.tid tuple); marker |])

let no_pair = -1

(* Decode straight off the page cells, boxing only the base-tuple prefix. *)
let decode_view t view =
  let n = Schema.arity t.schema in
  let is_appended = Tuple_view.compare_col view n role_appended = 0 in
  let orig_tid = Tuple_view.get_int view (n + 1) in
  let marked = Tuple_view.get_bool_or_false view (n + 2) in
  (is_appended, marked, Tuple_view.materialize_prefix view n ~tid:orig_tid)

(* The paper fixes the "read the current tuple" step at one I/O (§2.2.2):
   a Bloom filter [Seve76] screens the read away from AD, so it touches
   only the base page.  This charge is the engine's model of that screened
   read.  No engine path reads AD by key, so no filter is kept, and the one
   I/O goes synthetically to the Base category rather than simulating the
   access path the base update would have used anyway. *)
let charge_base_read t =
  Cost_meter.with_category t.meter Cost_meter.Base (fun () ->
      Cost_meter.charge_read t.meter)

let ad_entry_count t = List.fold_left (fun acc f -> acc + Hash_file.tuple_count f) 0 (all_files t)
let ad_page_count t = List.fold_left (fun acc f -> acc + Hash_file.page_count f) 0 (all_files t)

(* Keep the differential-file gauges fresh at transaction granularity (cheap:
   page/tuple counts are O(#files)).  Gauges, unlike the cost counters, are
   point-in-time, so sampling at txn boundaries is the honest reading. *)
let note_ad_gauges t =
  let r = Cost_meter.recorder t.meter in
  if Recorder.enabled r then begin
    Recorder.set_gauge r ~help:"Pages currently in the differential (A/D) file(s)."
      "vmat_hr_ad_pages"
      (float_of_int (ad_page_count t));
    Recorder.set_gauge r ~help:"Entries currently in the differential (A/D) file(s)."
      "vmat_hr_ad_entries"
      (float_of_int (ad_entry_count t))
  end

let store t ~role entry =
  Cost_meter.with_category t.meter Cost_meter.Hr (fun () ->
      Hash_file.insert (file_for t role) entry)

let apply_insert t tuple ~marked =
  store t ~role:role_appended (encode t tuple ~role:role_appended ~marker:(Value.Bool marked))

let apply_delete t tuple ~marked =
  charge_base_read t;
  store t ~role:role_deleted (encode t tuple ~role:role_deleted ~marker:(Value.Bool marked))

let record_update t ~old_tuple ~new_tuple ~marker_old ~marker_new =
  charge_base_read t;
  store t ~role:role_deleted (encode t old_tuple ~role:role_deleted ~marker:marker_old);
  store t ~role:role_appended (encode t new_tuple ~role:role_appended ~marker:marker_new)

let apply_update t ~old_tuple ~new_tuple ~marked_old ~marked_new =
  record_update t ~old_tuple ~new_tuple ~marker_old:(Value.Bool marked_old)
    ~marker_new:(Value.Bool marked_new)

let apply_ignorable t ~old_tuple ~new_tuple =
  let pair = Value.Int (Tuple.peek t.tids) in
  record_update t ~old_tuple ~new_tuple ~marker_old:pair ~marker_new:pair

(* Screens the old image before the new one. *)
let apply t ~mark ~before ~after =
  match (before, after) with
  | Some old_tuple, Some new_tuple ->
      let marked_old = mark old_tuple in
      apply_update t ~old_tuple ~new_tuple ~marked_old ~marked_new:(mark new_tuple)
  | None, Some tuple -> apply_insert t tuple ~marked:(mark tuple)
  | Some tuple, None -> apply_delete t tuple ~marked:(mark tuple)
  | None, None -> ()

let end_transaction t =
  (* Flushes charge the page writes the conventional update would also have
     paid, hence Base; invalidation makes the next transaction's touches
     charge afresh, which is what the paper's per-transaction Yao term
     models. *)
  Cost_meter.with_category t.meter Cost_meter.Base (fun () ->
      List.iter (fun f -> Buffer_pool.invalidate (Hash_file.pool f)) (all_files t));
  note_ad_gauges t

let identity_key tuple = Tuple.value_key tuple ^ "#" ^ string_of_int (Tuple.tid tuple)

(* Readily-ignorable pairs ({!apply_ignorable}) carry no screening result:
   both images of such a pair screen alike, so while both halves stand the
   pair changes nothing in the view.  When a half cancels against a screened
   entry for the same tuple, that entry's mark is the result the pair's
   images share, and the surviving half takes it; a half that cancels
   against another pair's half joins the two pairs, whose survivors then
   share one result.  Pairs that no screening result reaches stay unmarked,
   a no-op for the view. *)
type pairs = {
  halves : (bool * string, int) Hashtbl.t;  (* (appended?, identity) of a half -> its pair *)
  joined : (int, int) Hashtbl.t;  (* union-find links between pairs *)
  mutable reached : (int * bool) list;  (* a pair and a result that reached it *)
}

let rec pair_root p pair =
  match Hashtbl.find_opt p.joined pair with Some up -> pair_root p up | None -> pair

let note_cancelled p key ~a_marked ~d_marked =
  match (Hashtbl.find_opt p.halves (true, key), Hashtbl.find_opt p.halves (false, key)) with
  | Some pa, Some pd ->
      let ra = pair_root p pa and rd = pair_root p pd in
      if ra <> rd then Hashtbl.replace p.joined ra rd
  | Some pa, None -> p.reached <- (pa, d_marked) :: p.reached
  | None, Some pd -> p.reached <- (pd, a_marked) :: p.reached
  | None, None -> ()

(* The final mark of a surviving entry: its own, or the result that reached
   its pair. *)
let settle p =
  let marks = Hashtbl.create 16 in
  List.iter (fun (pair, marked) -> Hashtbl.replace marks (pair_root p pair) marked) p.reached;
  fun appended ((tuple, _) as entry) ->
    match Hashtbl.find_opt p.halves (appended, identity_key tuple) with
    | None -> entry
    | Some pair -> (tuple, Option.value ~default:false (Hashtbl.find_opt marks (pair_root p pair)))

(* Cancel append/delete pairs that refer to the same tuple instance (all
   fields including the tid): a tuple appended and deleted within the same
   epoch contributes to neither net set.  Both net sets come back in
   canonical (original-tid) order: [d_net] falls out of a [Hashtbl.fold],
   whose iteration order is unspecified, and the order in which net changes
   are later applied to the materialized view decides the page-access
   pattern the meter sees — so it must not depend on the hash function of
   the running compiler (vmlint rule D3). *)
let by_tid (t1, _) (t2, _) = Int.compare (Tuple.tid t1) (Tuple.tid t2)

let cancel_pairs ?pairs (a, d) =
  let deleted = Hashtbl.create (List.length d) in
  List.iter
    (fun (tuple, marked) ->
      Hashtbl.add deleted (identity_key tuple) (tuple, marked))
    d;
  let a_net =
    List.filter
      (fun (tuple, a_marked) ->
        let key = identity_key tuple in
        match Hashtbl.find_opt deleted key with
        | None -> true
        | Some (_, d_marked) ->
            Hashtbl.remove deleted key;
            (match pairs with Some p -> note_cancelled p key ~a_marked ~d_marked | None -> ());
            false)
      a
  in
  match pairs with
  | None ->
      ( List.sort by_tid a_net,
        List.sort by_tid (Hashtbl.fold (fun _ entry acc -> entry :: acc) deleted []) )
  | Some p ->
      let settle = settle p in
      ( List.sort by_tid (List.map (settle true) a_net),
        List.sort by_tid (Hashtbl.fold (fun _ entry acc -> settle false entry :: acc) deleted []) )

(* Partition the entries [iter] visits by role in file-scan order (the order
   the historical collect-then-partition produced), decoding off the page
   cells; the halves of readily-ignorable pairs are indexed only when some
   are met. *)
let partition t iter =
  let a = ref [] and d = ref [] in
  let pairs = lazy { halves = Hashtbl.create 16; joined = Hashtbl.create 16; reached = [] } in
  let marker_col = Schema.arity t.schema + 2 in
  List.iter
    (fun f ->
      iter f (fun view ->
          let is_appended, marked, tuple = decode_view t view in
          let pair = Tuple_view.get_int_or view marker_col ~default:no_pair in
          if pair <> no_pair then
            Hashtbl.replace (Lazy.force pairs).halves (is_appended, identity_key tuple) pair;
          if is_appended then a := (tuple, marked) :: !a else d := (tuple, marked) :: !d))
    (all_files t);
  (List.rev !a, List.rev !d, if Lazy.is_val pairs then Some (Lazy.force pairs) else None)

let collect_net t iter =
  let a, d, pairs = partition t iter in
  cancel_pairs ?pairs (a, d)

let net_changes t = collect_net t Hash_file.scan_views
let net_changes_unmetered t = collect_net t Hash_file.iter_views_unmetered

let iter_marked (a_net, d_net) ~delete ~insert =
  List.iter (fun (tuple, marked) -> if marked then delete tuple) d_net;
  List.iter (fun (tuple, marked) -> if marked then insert tuple) a_net

let drain t ~delete ~insert = iter_marked (net_changes t) ~delete ~insert
let pending t ~delete ~insert = iter_marked (net_changes_unmetered t) ~delete ~insert

let reset t =
  let a_net, d_net = net_changes t in
  Cost_meter.with_category t.meter Cost_meter.Base (fun () ->
      List.iter
        (fun (tuple, _) ->
          ignore (Btree.remove t.base ~key:(Btree.key_of t.base tuple) ~tid:(Tuple.tid tuple)))
        d_net;
      List.iter (fun (tuple, _) -> Btree.insert t.base tuple) a_net;
      Buffer_pool.invalidate (Btree.pool t.base));
  List.iter
    (fun f ->
      Hash_file.clear f;
      Buffer_pool.invalidate (Hash_file.pool f))
    (all_files t);
  note_ad_gauges t

let contents_unmetered t =
  let a_net, d_net = net_changes_unmetered t in
  let dead = Hashtbl.create 64 in
  List.iter (fun (tuple, _) -> Hashtbl.replace dead (identity_key tuple) ()) d_net;
  let out = ref (List.rev_map fst a_net) in
  Btree.iter_unmetered t.base (fun tuple ->
      if not (Hashtbl.mem dead (identity_key tuple)) then out := tuple :: !out);
  !out

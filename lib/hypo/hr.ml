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
  mutable version : int;  (* bumped by every write to AD and by every fold *)
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
  { base; schema; ad; ad_deletes; meter = Disk.meter disk; tids; version = 0 }

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
  t.version <- t.version + 1;
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

(* One A/D entry as a refresh reads it.  Its identity is the original tid
   plus the cells of the base tuple: an append and a delete of the same
   tuple instance share it, whatever tids the entries themselves got. *)
type entry = {
  tuple : Tuple.t;  (* the base tuple, carrying its original tid *)
  appended : bool;
  marked : bool;  (* the screening result; false for a pair's half *)
  pair : int;  (* the pair id of a readily-ignorable half, else [no_pair] *)
  mutable cancelled : bool;
}

(* Decode straight off the page cells, boxing only the base-tuple prefix. *)
let decode t view =
  let n = Schema.arity t.schema in
  let orig_tid = Tuple_view.get_int view (n + 1) in
  {
    tuple = Tuple_view.materialize_prefix view n ~tid:orig_tid;
    appended = Tuple_view.compare_col view n role_appended = 0;
    marked = Tuple_view.get_bool_or_false view (n + 2);
    pair = Tuple_view.get_int_or view (n + 2) ~default:no_pair;
    cancelled = false;
  }

(* The entries a refresh looks up by identity — every D entry and every half
   of a readily-ignorable pair — indexed by original tid, each tid's entries
   newest (last in scan order) first.  Matches are confirmed cell by cell. *)
let index by_tid e =
  let tid = Tuple.tid e.tuple in
  Hashtbl.replace by_tid tid (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid tid))

let newest by_tid tuple p =
  match Hashtbl.find_opt by_tid (Tuple.tid tuple) with
  | None -> None
  | Some entries -> List.find_opt (fun e -> p e && Tuple.equal_values e.tuple tuple) entries

(* Readily-ignorable pairs ({!apply_ignorable}) carry no screening result:
   both images of such a pair screen alike, so while both halves stand the
   pair changes nothing in the view.  When a half cancels against a screened
   entry for the same tuple, that entry's mark is the result the pair's
   images share, and the surviving half takes it; a half that cancels
   against another pair's half joins the two pairs, whose survivors then
   share one result.  Pairs that no screening result reaches stay unmarked,
   a no-op for the view.  An identity's half is the newest of its role. *)
type pairs = {
  joined : (int, int) Hashtbl.t;  (* union-find links between pairs *)
  mutable reached : (int * bool) list;  (* a pair and a result that reached it *)
}

let half by_tid ~appended tuple =
  Option.map
    (fun e -> e.pair)
    (newest by_tid tuple (fun e -> e.appended = appended && e.pair <> no_pair))

let rec pair_root p pair =
  match Hashtbl.find_opt p.joined pair with Some up -> pair_root p up | None -> pair

let note_cancelled p by_tid tuple ~a_marked ~d_marked =
  match (half by_tid ~appended:true tuple, half by_tid ~appended:false tuple) with
  | Some pa, Some pd ->
      let ra = pair_root p pa and rd = pair_root p pd in
      if ra <> rd then Hashtbl.replace p.joined ra rd
  | Some pa, None -> p.reached <- (pa, d_marked) :: p.reached
  | None, Some pd -> p.reached <- (pd, a_marked) :: p.reached
  | None, None -> ()

(* The final mark of a surviving entry: its own, or the first result that
   reached its pair. *)
let settle p by_tid =
  let marks = Hashtbl.create 16 in
  List.iter (fun (pair, marked) -> Hashtbl.replace marks (pair_root p pair) marked) p.reached;
  fun e ->
    match half by_tid ~appended:e.appended e.tuple with
    | None -> e.marked
    | Some pair -> Option.value ~default:false (Hashtbl.find_opt marks (pair_root p pair))

(* One pass over the entries [iter] visits.  Each A entry, in scan order,
   cancels the newest remaining D entry of its identity: a tuple appended and
   deleted within the same epoch contributes to neither net set.  Both net
   sets come back in original-tid order, ties in scan order: the order in
   which net changes are later applied to the materialized view decides the
   page-access pattern the meter sees, so it must not depend on a hash
   function (vmlint rule D3). *)
let tid_order (t1, _) (t2, _) = Int.compare (Tuple.tid t1) (Tuple.tid t2)

let read_net t iter =
  let by_tid = Hashtbl.create 64 in
  let a = ref [] and d = ref [] and any_pair = ref false in
  List.iter
    (fun f ->
      iter f (fun view ->
          let e = decode t view in
          if e.pair <> no_pair then any_pair := true;
          if e.appended then a := e :: !a else d := e :: !d;
          if (not e.appended) || e.pair <> no_pair then index by_tid e))
    (all_files t);
  let a = List.rev !a and d = List.rev !d in
  let pairs = if !any_pair then Some { joined = Hashtbl.create 16; reached = [] } else None in
  List.iter
    (fun e ->
      match newest by_tid e.tuple (fun x -> (not x.appended) && not x.cancelled) with
      | None -> ()
      | Some x ->
          x.cancelled <- true;
          e.cancelled <- true;
          Option.iter
            (fun p -> note_cancelled p by_tid e.tuple ~a_marked:e.marked ~d_marked:x.marked)
            pairs)
    a;
  let mark = match pairs with None -> (fun e -> e.marked) | Some p -> settle p by_tid in
  let net entries =
    List.stable_sort tid_order
      (List.filter_map (fun e -> if e.cancelled then None else Some (e.tuple, mark e)) entries)
  in
  (net a, net d)

type net = {
  a_net : (Tuple.t * bool) list;
  d_net : (Tuple.t * bool) list;
  read_at : int;  (* the relation's version when it was read *)
}

let net_changes t =
  let a_net, d_net = read_net t Hash_file.scan_views in
  { a_net; d_net; read_at = t.version }

let net_changes_unmetered t = read_net t Hash_file.iter_views_unmetered

let iter_marked (a_net, d_net) ~delete ~insert =
  List.iter (fun (tuple, marked) -> if marked then delete tuple) d_net;
  List.iter (fun (tuple, marked) -> if marked then insert tuple) a_net

let iter_net net ~delete ~insert = iter_marked (net.a_net, net.d_net) ~delete ~insert

let drain t ~delete ~insert =
  let net = net_changes t in
  iter_net net ~delete ~insert;
  net

let pending t ~delete ~insert = iter_marked (net_changes_unmetered t) ~delete ~insert

let reset t net =
  if net.read_at <> t.version then invalid_arg "Hr.reset: net changes read before a later change";
  Cost_meter.with_category t.meter Cost_meter.Base (fun () ->
      List.iter (fun (tuple, _) -> ignore (Btree.remove_tuple t.base tuple)) net.d_net;
      List.iter (fun (tuple, _) -> Btree.insert t.base tuple) net.a_net;
      Buffer_pool.invalidate (Btree.pool t.base));
  List.iter
    (fun f ->
      Hash_file.clear f;
      Buffer_pool.invalidate (Hash_file.pool f))
    (all_files t);
  t.version <- t.version + 1;
  note_ad_gauges t

let contents_unmetered t =
  let a_net, d_net = net_changes_unmetered t in
  let dead = Hashtbl.create 64 in  (* original tid -> net-deleted tuples *)
  List.iter (fun (tuple, _) -> Hashtbl.add dead (Tuple.tid tuple) tuple) d_net;
  let out = ref (List.rev_map fst a_net) in
  Btree.iter_unmetered t.base (fun tuple ->
      if not (List.exists (Tuple.equal_values tuple) (Hashtbl.find_all dead (Tuple.tid tuple)))
      then out := tuple :: !out);
  !out

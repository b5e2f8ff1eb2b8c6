open Vmat_storage

(* Entries are ordered by the pair (key, tid); internal separators are such
   pairs, equal to the smallest pair of their right subtree.  Descending with
   an exact pair therefore lands in the unique leaf that may contain it, and
   descending with (key, min_int) lands in the leftmost leaf that may contain
   any entry with that key.

   Leaves hold their rows in flat page buffers, in (key, tid) order by slot;
   the key is a column offset ([key_col]), so ordering and range bounds are
   evaluated straight off page cells without boxing.  Internal nodes keep
   their boxed separators and children in arrays.  Every descent and every
   in-leaf lookup is a binary search; each node on the path is still read
   through the pool exactly once, so page touches and charges do not depend
   on how a node is searched. *)

type pair = Value.t * int

let compare_pair (k1, t1) (k2, t2) =
  match Value.compare k1 k2 with 0 -> Int.compare t1 t2 | c -> c

type leaf = {
  l_pid : Disk.page_id;
  l_rows : Flat.t;  (* sorted by (key, tid) *)
  mutable l_next : leaf option;
}

type internal = {
  i_pid : Disk.page_id;
  mutable i_keys : pair array;  (* n separators for n+1 children *)
  mutable i_children : node array;
}

and node = Leaf of leaf | Internal of internal

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  name : string;
  fanout : int;
  leaf_capacity : int;
  key_col : int;
  mutable root : node;
  mutable count : int;
  mutable n_leaves : int;
  mutable n_index : int;
}

let file_name t kind = Printf.sprintf "btree:%s:%s" t.name kind

let create ~disk ?pool_capacity ~name ~fanout ~leaf_capacity ~key_col () =
  if fanout < 2 then invalid_arg "Btree.create: fanout must be >= 2";
  if leaf_capacity < 1 then invalid_arg "Btree.create: leaf_capacity must be >= 1";
  if key_col < 0 then invalid_arg "Btree.create: key_col must be >= 0";
  let pool = Buffer_pool.create ?capacity:pool_capacity disk in
  let t =
    {
      disk;
      pool;
      name;
      fanout;
      leaf_capacity;
      key_col;
      root =
        Leaf
          {
            l_pid = Disk.alloc disk ~file:(Printf.sprintf "btree:%s:leaf" name);
            l_rows = Flat.create ();
            l_next = None;
          };
      count = 0;
      n_leaves = 1;
      n_index = 0;
    }
  in
  t

let key_col t = t.key_col
let key_of t tuple = Tuple.get tuple t.key_col
let pool t = t.pool
let tuple_count t = t.count
let leaf_pages t = t.n_leaves
let index_pages t = t.n_index

let height t =
  let rec depth = function
    | Leaf _ -> 0
    | Internal n -> 1 + depth n.i_children.(0)
  in
  depth t.root

let pair_of t tuple = (Tuple.get tuple t.key_col, Tuple.tid tuple)

(* [compare_pair] of the row at [slot] against (key, tid), off the cells. *)
let compare_slot_pair t rows slot key tid =
  match Flat.compare_cell_value rows slot t.key_col key with
  | 0 -> Int.compare (Flat.tid_at rows slot) tid
  | c -> c

let slot_pair t rows slot = (Flat.cell_value rows slot t.key_col, Flat.tid_at rows slot)

(* Binary searches over [lo, hi), each for the first index at which its
   ordering test fails (the test holds on a prefix of the range).  They take
   their operands as arguments, so a search allocates nothing. *)

(* The number of separators <= target: the index of the child to descend
   into. *)
let rec child_search keys target lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if compare_pair keys.(mid) target <= 0 then child_search keys target (mid + 1) hi
    else child_search keys target lo mid

let child_index keys target = child_search keys target 0 (Array.length keys)

(* The first slot whose row is at or above (key, tid). *)
let rec pair_search t rows key tid lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if compare_slot_pair t rows mid key tid < 0 then pair_search t rows key tid (mid + 1) hi
    else pair_search t rows key tid lo mid

(* The first slot whose key is at or above [key]. *)
let rec key_search t rows key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Flat.compare_cell_value rows mid t.key_col key < 0 then key_search t rows key (mid + 1) hi
    else key_search t rows key lo mid

(* [a] with [x] inserted at index [i]. *)
let array_insert a i x =
  let b = Array.make (Array.length a + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (Array.length a - i);
  b

let split_leaf t leaf =
  let n = Flat.length leaf.l_rows in
  let keep = (n + 1) / 2 in
  let right =
    { l_pid = Disk.alloc t.disk ~file:(file_name t "leaf"); l_rows = Flat.create (); l_next = leaf.l_next }
  in
  for slot = keep to n - 1 do
    Flat.copy_row ~src:leaf.l_rows slot ~dst:right.l_rows
  done;
  Flat.truncate leaf.l_rows keep;
  leaf.l_next <- Some right;
  t.n_leaves <- t.n_leaves + 1;
  Buffer_pool.write t.pool leaf.l_pid;
  Buffer_pool.write t.pool right.l_pid;
  let sep = slot_pair t right.l_rows 0 in
  (sep, Leaf right)

let split_internal t node =
  let c = Array.length node.i_children in
  let m = (c + 1) / 2 in
  let keys = node.i_keys in
  let promoted = keys.(m - 1) in
  let right =
    {
      i_pid = Disk.alloc t.disk ~file:(file_name t "index");
      i_keys = Array.sub keys m (Array.length keys - m);
      i_children = Array.sub node.i_children m (c - m);
    }
  in
  node.i_keys <- Array.sub keys 0 (m - 1);
  node.i_children <- Array.sub node.i_children 0 m;
  t.n_index <- t.n_index + 1;
  Buffer_pool.write t.pool node.i_pid;
  Buffer_pool.write t.pool right.i_pid;
  (promoted, Internal right)

let rec insert_into t node ((key, tid) as pair) tuple =
  match node with
  | Leaf leaf ->
      Buffer_pool.read t.pool leaf.l_pid;
      (* The sorted-insert point ((key, tid) pairs are unique, so ties
         cannot arise). *)
      let rows = leaf.l_rows in
      Flat.insert_at rows (pair_search t rows key tid 0 (Flat.length rows)) tuple;
      Buffer_pool.write t.pool leaf.l_pid;
      if Flat.length leaf.l_rows > t.leaf_capacity then Some (split_leaf t leaf) else None
  | Internal n -> (
      Buffer_pool.read t.pool n.i_pid;
      let i = child_index n.i_keys pair in
      match insert_into t n.i_children.(i) pair tuple with
      | None -> None
      | Some (sep, right_node) ->
          n.i_keys <- array_insert n.i_keys i sep;
          n.i_children <- array_insert n.i_children (i + 1) right_node;
          Buffer_pool.write t.pool n.i_pid;
          if Array.length n.i_children > t.fanout then Some (split_internal t n) else None)

let insert t tuple =
  let pair = pair_of t tuple in
  (match insert_into t t.root pair tuple with
  | None -> ()
  | Some (sep, right_node) ->
      let root =
        {
          i_pid = Disk.alloc t.disk ~file:(file_name t "index");
          i_keys = [| sep |];
          i_children = [| t.root; right_node |];
        }
      in
      t.n_index <- t.n_index + 1;
      Buffer_pool.write t.pool root.i_pid;
      t.root <- Internal root);
  t.count <- t.count + 1

let rec leaf_for t node pair =
  match node with
  | Leaf leaf ->
      Buffer_pool.read t.pool leaf.l_pid;
      leaf
  | Internal n ->
      Buffer_pool.read t.pool n.i_pid;
      leaf_for t n.i_children.(child_index n.i_keys pair) pair

(* The slot of the entry (key, tid) in [leaf], or -1 when it is absent. *)
let slot_of t leaf ~key ~tid =
  let rows = leaf.l_rows in
  let n = Flat.length rows in
  let slot = pair_search t rows key tid 0 n in
  if slot < n && compare_slot_pair t rows slot key tid = 0 then slot else -1

let remove t ~key ~tid =
  let leaf = leaf_for t t.root (key, tid) in
  let slot = slot_of t leaf ~key ~tid in
  if slot < 0 then false
  else begin
    t.count <- t.count - 1;
    Flat.remove_at leaf.l_rows slot;
    Buffer_pool.write t.pool leaf.l_pid;
    true
  end

let update_in_place t ~key ~tid f =
  let leaf = leaf_for t t.root (key, tid) in
  let slot = slot_of t leaf ~key ~tid in
  if slot < 0 then false
  else begin
    let replacement = f (Flat.materialize leaf.l_rows slot) in
    if Tuple.tid replacement <> tid || not (Value.equal (key_of t replacement) key) then
      invalid_arg "Btree.update_in_place: replacement moved the entry";
    Flat.replace_at leaf.l_rows slot replacement;
    Buffer_pool.write t.pool leaf.l_pid;
    true
  end

(* The one range walk.  From the leftmost leaf that may hold [lo], read
   (and charge) each leaf before looking at its rows, and hand [run] the
   leaf's slots [first, stop) whose key lies in [lo, hi].  [lo] is tested
   only until the first row at or above it, and the walk ends at the first
   row above [hi].  Slot order is (key, tid) order, so rows come exactly as
   the historical sorted-list walk visited them. *)
let walk_range t ~lo ~hi run =
  if Value.compare lo hi <= 0 then begin
    let rec stop_at rows n slot =
      if slot < n && Flat.compare_cell_value rows slot t.key_col hi <= 0 then
        stop_at rows n (slot + 1)
      else slot
    in
    let rec walk leaf ~seeking =
      Buffer_pool.read t.pool leaf.l_pid;
      let rows = leaf.l_rows in
      let n = Flat.length rows in
      let first = if seeking then key_search t rows lo 0 n else 0 in
      let stop = stop_at rows n first in
      if first < stop then run rows first stop;
      match leaf.l_next with
      | Some next when stop = n -> walk next ~seeking:(first = n)
      | _ -> ()
    in
    walk (leaf_for t t.root (lo, Int.min_int)) ~seeking:true
  end

let range_views t ~lo ~hi f =
  walk_range t ~lo ~hi (fun rows first stop ->
      let view = Tuple_view.on rows first in
      for slot = first to stop - 1 do
        Tuple_view.set_slot view slot;
        f view
      done)

(* Cons [f] of the rows at slots [first, slot] onto [acc], last row first. *)
let rec box_run view f first slot acc =
  if slot < first then acc
  else begin
    Tuple_view.set_slot view slot;
    box_run view f first (slot - 1) (f view :: acc)
  end

(* The walk's runs are kept newest first, so boxing them back to front
   conses each result once, straight into key order. *)
let range_rows t ~lo ~hi f =
  let runs = ref [] in
  walk_range t ~lo ~hi (fun rows first stop -> runs := (rows, first, stop) :: !runs);
  List.fold_left
    (fun acc (rows, first, stop) -> box_run (Tuple_view.on rows first) f first (stop - 1) acc)
    [] !runs

let range t ~lo ~hi f = range_views t ~lo ~hi (fun view -> f (Tuple_view.materialize view))

let find_views t key f = range_views t ~lo:key ~hi:key f

let find t key =
  let acc = ref [] in
  range t ~lo:key ~hi:key (fun tuple -> acc := tuple :: !acc);
  List.rev !acc

let rec leftmost_leaf = function
  | Leaf leaf -> leaf
  | Internal n -> leftmost_leaf n.i_children.(0)

let iter_views_unmetered t f =
  let view = Tuple_view.on (Flat.create ()) 0 in
  let rec walk = function
    | None -> ()
    | Some leaf ->
        for slot = 0 to Flat.length leaf.l_rows - 1 do
          Tuple_view.set view leaf.l_rows slot;
          f view
        done;
        walk leaf.l_next
  in
  walk (Some (leftmost_leaf t.root))

let iter_unmetered t f = iter_views_unmetered t (fun view -> f (Tuple_view.materialize view))

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Bounds, ordering within nodes, separator correctness. *)
  let rec check node ~lo ~hi =
    (* every pair p in subtree must satisfy lo <= p < hi (when bounds given) *)
    match node with
    | Leaf leaf ->
        let n = Flat.length leaf.l_rows in
        if n > t.leaf_capacity then fail "leaf over capacity: %d > %d" n t.leaf_capacity;
        for slot = 0 to n - 2 do
          if compare_pair (slot_pair t leaf.l_rows slot) (slot_pair t leaf.l_rows (slot + 1)) >= 0
          then fail "leaf unsorted"
        done;
        for slot = 0 to n - 1 do
          let p = slot_pair t leaf.l_rows slot in
          (match lo with
          | Some l when compare_pair p l < 0 -> fail "entry below subtree bound"
          | _ -> ());
          match hi with
          | Some h when compare_pair p h >= 0 -> fail "entry above subtree bound"
          | _ -> ()
        done;
        n
    | Internal n ->
        let nk = Array.length n.i_keys and nc = Array.length n.i_children in
        if nc <> nk + 1 then fail "internal arity mismatch";
        if nc > t.fanout then fail "internal over fanout";
        for i = 0 to nk - 2 do
          if compare_pair n.i_keys.(i) n.i_keys.(i + 1) >= 0 then fail "separators unsorted"
        done;
        (* child i is bounded by (key[i-1], key[i]) *)
        let total = ref 0 in
        Array.iteri
          (fun i child ->
            let lo_i = if i = 0 then lo else Some n.i_keys.(i - 1) in
            let hi_i = if i = nk then hi else Some n.i_keys.(i) in
            total := !total + check child ~lo:lo_i ~hi:hi_i)
          n.i_children;
        !total
  in
  let total = check t.root ~lo:None ~hi:None in
  if total <> t.count then fail "tuple count mismatch: %d <> %d" total t.count;
  (* The leaf chain must visit the tuples in order. *)
  let previous = ref None in
  iter_unmetered t (fun tuple ->
      (match !previous with
      | Some p when compare_pair p (pair_of t tuple) >= 0 -> fail "leaf chain out of order"
      | _ -> ());
      previous := Some (pair_of t tuple))

let chunk size list =
  let rec loop acc current n = function
    | [] -> List.rev (if List.is_empty current then acc else List.rev current :: acc)
    | x :: rest ->
        if n = size then loop (List.rev current :: acc) [ x ] 1 rest
        else loop acc (x :: current) (n + 1) rest
  in
  loop [] [] 0 list

let bulk_load t tuples =
  if t.count > 0 then invalid_arg "Btree.bulk_load: tree is not empty";
  match tuples with
  | [] -> ()
  | _ ->
      let sorted =
        List.sort (fun a b -> compare_pair (pair_of t a) (pair_of t b)) tuples
      in
      let leaf_groups = chunk t.leaf_capacity sorted in
      let leaves =
        List.map
          (fun group ->
            let rows = Flat.create () in
            List.iter (fun tuple -> ignore (Flat.append rows tuple)) group;
            { l_pid = Disk.alloc t.disk ~file:(file_name t "leaf"); l_rows = rows; l_next = None })
          leaf_groups
      in
      let rec link = function
        | a :: (b :: _ as rest) ->
            a.l_next <- Some b;
            link rest
        | _ -> ()
      in
      link leaves;
      List.iter (fun leaf -> Buffer_pool.write t.pool leaf.l_pid) leaves;
      t.n_leaves <- List.length leaves;
      (* The old empty root leaf is abandoned; free its page. *)
      (match t.root with
      | Leaf old when Flat.length old.l_rows = 0 ->
          Buffer_pool.discard t.pool old.l_pid;
          Disk.free t.disk old.l_pid;
          t.n_leaves <- t.n_leaves (* already replaced by the new count *)
      | _ -> ());
      (* Build packed internal levels; carry each node's minimum pair. *)
      let min_of_leaf leaf = slot_pair t leaf.l_rows 0 in
      let rec build level =
        match level with
        | [ (node, _) ] -> node
        | _ ->
            let groups = chunk t.fanout level in
            let parents =
              List.map
                (fun group ->
                  let group = Array.of_list group in
                  let node =
                    {
                      i_pid = Disk.alloc t.disk ~file:(file_name t "index");
                      i_keys = Array.init (Array.length group - 1) (fun i -> snd group.(i + 1));
                      i_children = Array.map fst group;
                    }
                  in
                  t.n_index <- t.n_index + 1;
                  Buffer_pool.write t.pool node.i_pid;
                  (Internal node, snd group.(0)))
                groups
            in
            build parents
      in
      t.root <- build (List.map (fun leaf -> (Leaf leaf, min_of_leaf leaf)) leaves);
      t.count <- List.length sorted

let min_key_unmetered t =
  let rec first_nonempty = function
    | None -> None
    | Some leaf ->
        if Flat.length leaf.l_rows > 0 then Some (Flat.cell_value leaf.l_rows 0 t.key_col)
        else first_nonempty leaf.l_next
  in
  first_nonempty (Some (leftmost_leaf t.root))

let max_key_unmetered t =
  let result = ref None in
  let rec walk = function
    | None -> ()
    | Some leaf ->
        let n = Flat.length leaf.l_rows in
        if n > 0 then result := Some (Flat.cell_value leaf.l_rows (n - 1) t.key_col);
        walk leaf.l_next
  in
  walk (Some (leftmost_leaf t.root));
  !result

let remove_tuple t tuple = remove t ~key:(key_of t tuple) ~tid:(Tuple.tid tuple)

open Vmat_storage
open Vmat_relalg
module Tlock = Vmat_index.Tlock
module Recorder = Vmat_obs.Recorder

type t = {
  meter : Cost_meter.t;
  view_name : string;
  pred : Predicate.t;
  compiled : Tuple.t -> bool option;  (* eval3 semantics, zero alloc per row *)
  locks : Tlock.t;
  mutable stage2 : int;
}

(* Unbounded interval ends become extreme sentinels for the t-lock table. *)
let lo_sentinel = Value.Null
let hi_sentinel = Value.Str "\xff\xff\xff\xff\xff\xff\xff\xff"

let create ~meter ~view_name ~pred () =
  let locks = Tlock.create () in
  (match Predicate.tlock_intervals pred with
  | None -> Tlock.lock_everything locks ~view:view_name
  | Some intervals ->
      List.iter
        (fun (iv : Predicate.interval) ->
          Tlock.lock locks ~view:view_name ~column:iv.column
            ~lo:(Option.value ~default:lo_sentinel iv.lo)
            ~hi:(Option.value ~default:hi_sentinel iv.hi))
        intervals);
  {
    meter;
    view_name;
    pred;
    compiled = Predicate.compile_boxed pred;
    locks;
    stage2 = 0;
  }

let screen t tuple =
  if not (Tlock.breaks t.locks ~view:t.view_name tuple) then false
  else begin
    t.stage2 <- t.stage2 + 1;
    (let r = Cost_meter.recorder t.meter in
     if Recorder.enabled r then
       Recorder.inc r
         ~help:"Stage-2 screening tests (a t-lock broke, so the full predicate ran)."
         ~labels:[ ("view", t.view_name) ]
         "vmat_screen_stage2_total" 1.);
    Cost_meter.with_category t.meter Cost_meter.Screen (fun () ->
        Cost_meter.charge_predicate_test t.meter);
    (* Satisfiable under the tuple's bindings: only a definite [Some false]
       screens the change out (unknowns must pass, as in
       [Predicate.satisfiable_with]). *)
    match t.compiled tuple with Some false -> false | Some true | None -> true
  end

let stage2_tests t = t.stage2

let rec writes_no_read reads old_tuple new_tuple i =
  i >= Tuple.arity old_tuple
  || ((not (List.mem i reads)) || Value.equal (Tuple.get old_tuple i) (Tuple.get new_tuple i))
     && writes_no_read reads old_tuple new_tuple (i + 1)

let readily_ignorable ~reads ~old_tuple ~new_tuple =
  Tuple.arity old_tuple = Tuple.arity new_tuple && writes_no_read reads old_tuple new_tuple 0

let screen_images t (change : Strategy.change) =
  let mark = Option.map (screen t) in
  (mark change.before, mark change.after)

let screen_change t ~reads (change : Strategy.change) =
  match (change.before, change.after) with
  | Some old_tuple, Some new_tuple when readily_ignorable ~reads ~old_tuple ~new_tuple ->
      (Some false, Some false)
  | _ -> screen_images t change

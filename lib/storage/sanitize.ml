(* Runtime invariant sanitizers: cheap always-on checks plus sampled
   expensive ones, enabled per-context (Ctx.create ~sanitize:true or
   VMAT_SANITIZE=1).  The counterpart of the static rules vmlint enforces at
   the source level — vmlint proves the code cannot *introduce* certain
   nondeterminism; the sanitizer proves the running engine actually
   *preserves* its semantic invariants (cost conservation, refresh ≡
   recompute).

   Design constraint: zero observer effect.  Checks may read unmetered views
   of structures and mirror meter charges, but must never charge the meter,
   consume context RNG state, or mint tuple ids from the context source —
   measurements are bit-identical with the sanitizer on or off. *)

exception Violation of string

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable tests : int;
  mutable overhead : int;
}

type state = {
  sample_every : int;
  on_violation : string -> unit;
  ticks : (string, int ref) Hashtbl.t;
      (* per-rule deterministic sampling counters: advancing them must not
         touch any RNG the engine observes *)
  mirror : counts array;  (* per category, same indexing as the meter *)
  mutable checks_run : int;
  mutable violations : int;
}

type t = { state : state option }

(* Immutable literal on purpose: the disabled sanitizer carries no state at
   all, so passing [none] everywhere costs one pointer and vmlint's D1 rule
   has nothing to object to. *)
let none = { state = None }

let enabled t = Option.is_some t.state

let default_violation rule_and_detail =
  raise (Violation rule_and_detail)

let env_enabled () =
  match Sys.getenv_opt "VMAT_SANITIZE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let create ?(sample_every = 16) ?(on_violation = default_violation) () =
  if sample_every <= 0 then invalid_arg "Sanitize.create: sample_every must be positive";
  {
    state =
      Some
        {
          sample_every;
          on_violation;
          ticks = Hashtbl.create 8;
          mirror = Array.init Cost_meter.ncategories (fun _ ->
              { reads = 0; writes = 0; tests = 0; overhead = 0 });
          checks_run = 0;
          violations = 0;
        };
  }

let checks_run t = match t.state with None -> 0 | Some s -> s.checks_run
let violations t = match t.state with None -> 0 | Some s -> s.violations

let report t ~rule ~detail =
  match t.state with
  | None -> ()
  | Some s ->
      s.violations <- s.violations + 1;
      s.on_violation (Printf.sprintf "[%s] %s" rule detail)

let check t ~rule cond ~detail =
  match t.state with
  | None -> ()
  | Some s ->
      s.checks_run <- s.checks_run + 1;
      if not (cond ()) then begin
        s.violations <- s.violations + 1;
        s.on_violation (Printf.sprintf "[%s] %s" rule (detail ()))
      end

(* Deterministic counter-based sampling: the [n]-th call for a given rule
   fires iff n mod sample_every = 0 (so the very first occurrence is always
   checked).  No RNG involved — sampling with the context RNG would shift
   every downstream random draw and break bit-identity with sanitize off. *)
let sample t ~rule =
  match t.state with
  | None -> false
  | Some s ->
      let tick =
        match Hashtbl.find_opt s.ticks rule with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace s.ticks rule r;
            r
      in
      let n = !tick in
      incr tick;
      n mod s.sample_every = 0

(* ------------------------------------------------------------------ *)
(* Cost conservation                                                    *)
(* ------------------------------------------------------------------ *)

(* Mirror every charge through the meter's dedicated sanitizer hook slot and
   periodically reconcile against the meter's own tallies.  Guards against a
   future refactor adding a charge path that bypasses the hook mechanism (or
   mutating tallies without charging) — the same drift the recorder's metric
   mirror would silently inherit. *)

let attach_meter t meter =
  match t.state with
  | None -> ()
  | Some s ->
      let on_charge cat kind n _cost_ms =
        let c = s.mirror.(Cost_meter.category_index cat) in
        match kind with
        | Cost_meter.Read -> c.reads <- c.reads + n
        | Cost_meter.Write -> c.writes <- c.writes + n
        | Cost_meter.Predicate_test -> c.tests <- c.tests + n
        | Cost_meter.Overhead_tuples -> c.overhead <- c.overhead + n
      in
      let on_reset () =
        Array.iter
          (fun c ->
            c.reads <- 0;
            c.writes <- 0;
            c.tests <- 0;
            c.overhead <- 0)
          s.mirror
      in
      Cost_meter.set_san_hook meter (Some { Cost_meter.on_charge; on_reset })

let check_meter t meter =
  match t.state with
  | None -> ()
  | Some _ ->
      List.iter
        (fun cat ->
          let name = Cost_meter.category_name cat in
          let mirror_of t' =
            match t'.state with
            | None -> assert false
            | Some s -> s.mirror.(Cost_meter.category_index cat)
          in
          let c = mirror_of t in
          check t ~rule:"cost-conservation"
            (fun () ->
              c.reads = Cost_meter.reads meter cat
              && c.writes = Cost_meter.writes meter cat
              && c.tests = Cost_meter.predicate_tests meter cat
              && c.overhead = Cost_meter.overhead_tuples meter cat)
            ~detail:(fun () ->
              Printf.sprintf
                "category %s: mirror r=%d w=%d t=%d o=%d vs meter r=%d w=%d t=%d o=%d \
                 (a charge path bypassed the hook, or a tally was mutated directly)"
                name c.reads c.writes c.tests c.overhead
                (Cost_meter.reads meter cat)
                (Cost_meter.writes meter cat)
                (Cost_meter.predicate_tests meter cat)
                (Cost_meter.overhead_tuples meter cat)))
        Cost_meter.all_categories

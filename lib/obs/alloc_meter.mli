(** Word-exact allocation meter for the calling domain (DESIGN §12.6).

    A bracket reads {!words} (or {!bytes}) before and after the code it
    measures; the difference is every word that domain allocated in
    between, give or take the meter's own few words.  Both counters it
    combines are domain-local in OCaml 5, so other domains' work never
    leaks into a bracket.

    [Gc.allocated_bytes] is no substitute: on OCaml 5.1 its stub divides
    the minor heap's current fill by the word size twice, so allocation
    that has not yet met a minor collection is undercounted 8x. *)

val words : unit -> float
(** Words this domain has allocated so far: [Gc.minor_words] (exact,
    unboxed) plus the words allocated directly in the major heap (major
    minus promoted words, from [Gc.counters]). *)

val bytes : unit -> float
(** {!words} in bytes. *)

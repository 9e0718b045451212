(** Mutable min-priority queue over float priorities (pairing heap).

    A test-only reference model: [test_util] checks {!Dqueue}'s pop
    order against it. Operations are amortized O(log n) for [pop] and
    O(1) for [push]. The queue does not support decrease-key; push
    duplicates and skip stale entries instead (the standard
    lazy-deletion idiom for A-star search). *)

type 'a t

val create : unit -> 'a t
(** A fresh empty queue. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of elements currently queued (including duplicates). *)

val push : 'a t -> float -> 'a -> unit
(** [push q prio x] inserts [x] with priority [prio]. Lower priorities
    pop first. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, or [None] if empty. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum-priority element without removing it. *)

val clear : 'a t -> unit

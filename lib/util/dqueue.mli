(** Bucketed dial priority queue over non-negative integer keys with
    non-negative integer payloads: the open list of the router's A*
    core.

    Contract:

    - {b Key order.} Keys pop in non-decreasing order.
    - {b FIFO ties.} Among equal keys, payloads pop in push order. The
      order is a function of the push/pop sequence alone, never of
      internal layout, so every search that pushes the same states in
      the same order pops them in the same order.
    - {b Keys may go backwards.} A push need not respect the order of
      earlier pops: a push below the cursor (the last popped key) moves
      the cursor back, and that key is the next to pop.
    - {b Cheap reuse.} {!clear} costs O(buckets and pages touched since
      the last clear), not O(key range), and frees nothing, so one
      queue serves every search of a row pair.

    Memory is proportional to the 256-key pages actually touched, so
    sparse, far-apart keys are cheap. {!push} and {!pop} allocate only
    when a bucket or the page table must grow. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push q key v] enqueues payload [v] at [key]. Raises
    [Invalid_argument] when [key] or [v] is negative. *)

val pop : t -> int
(** Remove and return the payload of the minimum key (the earliest
    pushed among equal keys), or [-1] when the queue is empty (payloads
    are non-negative, so [-1] is never a payload). The popped key is
    then {!popped_key}. *)

val popped_key : t -> int
(** The key of the most recent successful {!pop}. Valid until the next
    {!push} or {!clear}. *)

val clear : t -> unit
(** Empty the queue for reuse, in time proportional to what was
    touched since the last clear. *)

(* Bucketed dial priority queue over non-negative integer keys with
   non-negative integer payloads — the open list of the router's A* core. The
   contract (key order, FIFO ties, cursor, clear cost) is stated in
   dqueue.mli; this file is about how it is met cheaply.

   A binary heap pays O(log n) per operation and compares boxed or
   float priorities; the router's costs live on an integer lattice
   (grid steps, via penalties and congestion prices are all quantized
   to 1/16 of a grid unit, see [Search]), so the queue can instead
   keep one FIFO bucket per distinct key and scan a cursor forward —
   O(1) pushes, pops amortized over the total key advance.

   Layout: keys are split into 256-bucket pages, allocated lazily so
   sparse, far-apart keys (late negotiation rounds price congestion
   steeply) cost memory proportional to the pages actually touched,
   and the cursor skips an empty page in one step. A page is flat:
   per-slot [head]/[len] int arrays and one payload array per slot.
   Unallocated pages are the queue's empty sentinel page rather than
   an [option], so a push or pop reads page -> slot array -> payload
   with no [Some] to unwrap and nothing allocated. *)

type page = {
  mutable occupied : int; (* buckets with pending elements *)
  head : int array; (* per slot: next element to pop *)
  len : int array; (* per slot: next free position *)
  data : int array array; (* per slot: payloads, [||] until first use *)
}

type t = {
  mutable pages : page array; (* [empty] where not yet allocated *)
  empty : page; (* sentinel: never written, [occupied] stays 0 *)
  mutable cur : int; (* no pending key is below this *)
  mutable size : int;
  touched_keys : int Vec.t; (* buckets to reset on clear; may hold dups *)
  touched_pages : page Vec.t;
}

let page_bits = 8
let page_size = 1 lsl page_bits
let slot_mask = page_size - 1

let create () =
  {
    pages = [||];
    empty = { occupied = 0; head = [||]; len = [||]; data = [||] };
    cur = 0;
    size = 0;
    touched_keys = Vec.create ();
    touched_pages = Vec.create ();
  }

let length t = t.size
let is_empty t = t.size = 0

(* after a pop, the cursor sits on the popped key *)
let popped_key t = t.cur

let clear t =
  Vec.iter
    (fun key ->
      let page = t.pages.(key lsr page_bits) in
      let slot = key land slot_mask in
      page.head.(slot) <- 0;
      page.len.(slot) <- 0)
    t.touched_keys;
  Vec.iter (fun p -> p.occupied <- 0) t.touched_pages;
  Vec.clear t.touched_keys;
  Vec.clear t.touched_pages;
  t.cur <- 0;
  t.size <- 0

(* the page for index [pi], allocating it (and growing the page table)
   on first use *)
let new_page t pi =
  let cap = Array.length t.pages in
  if pi >= cap then begin
    let pages = Array.make (max (pi + 1) (max 8 (2 * cap))) t.empty in
    Array.blit t.pages 0 pages 0 cap;
    t.pages <- pages
  end;
  let p =
    {
      occupied = 0;
      head = Array.make page_size 0;
      len = Array.make page_size 0;
      data = Array.make page_size [||];
    }
  in
  t.pages.(pi) <- p;
  p

(* a full bucket reclaims its popped prefix, or doubles when it has
   none *)
let make_room page slot =
  let data = page.data.(slot) in
  let head = page.head.(slot) and len = page.len.(slot) in
  if head > 0 then begin
    Array.blit data head data 0 (len - head);
    page.head.(slot) <- 0;
    page.len.(slot) <- len - head
  end
  else begin
    let grown = Array.make (max 4 (2 * len)) 0 in
    Array.blit data 0 grown 0 len;
    page.data.(slot) <- grown
  end

let push t key v =
  if key < 0 then invalid_arg "Dqueue.push: negative key";
  if v < 0 then invalid_arg "Dqueue.push: negative payload";
  let pi = key lsr page_bits in
  let page =
    if pi < Array.length t.pages && t.pages.(pi) != t.empty then t.pages.(pi)
    else new_page t pi
  in
  let slot = key land slot_mask in
  let len = page.len.(slot) in
  if page.head.(slot) = len then begin
    (* bucket was empty (pops reset it to 0/0): register it, and its
       page if it was idle *)
    if page.occupied = 0 then ignore (Vec.push t.touched_pages page);
    page.occupied <- page.occupied + 1;
    ignore (Vec.push t.touched_keys key)
  end;
  if len = Array.length page.data.(slot) then make_room page slot;
  let len = page.len.(slot) in
  page.data.(slot).(len) <- v;
  page.len.(slot) <- len + 1;
  if key < t.cur then t.cur <- key;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then -1
  else begin
    (* the cursor invariant (no pending key below [cur]) means the
       first occupied page at or after the cursor's holds the minimum,
       at or after the cursor's slot when it is the cursor's own page *)
    let pi = ref (t.cur lsr page_bits) in
    let slot = ref (t.cur land slot_mask) in
    while t.pages.(!pi).occupied = 0 do
      incr pi;
      slot := 0
    done;
    let page = t.pages.(!pi) in
    while page.head.(!slot) = page.len.(!slot) do
      incr slot
    done;
    let slot = !slot in
    let head = page.head.(slot) in
    let v = page.data.(slot).(head) in
    if head + 1 = page.len.(slot) then begin
      page.head.(slot) <- 0;
      page.len.(slot) <- 0;
      page.occupied <- page.occupied - 1
    end
    else page.head.(slot) <- head + 1;
    t.cur <- (!pi lsl page_bits) lor slot;
    t.size <- t.size - 1;
    v
  end

(* The router's shared A* search core.

   Both routing algorithms — first-come-first-served claiming
   ([Sequential]) and PathFinder-style negotiation ([Negotiated]) —
   run the same state-space search over a row pair's grid: states are
   (node, arrival direction), horizontal runs live on metal 1 and
   vertical runs on metal 2, a turn is a via. They differ only in
   what a foreign resource costs: ownership makes it impassable,
   negotiation prices it. The cost model is first-order — plain data
   read straight from arrays inside {!run}, with no closures:

   - {b Hard constraints} (both modes): the grid's [blocked] /
     [blocked_h] geometry and the owner arrays. An edge or node-layer
     slot is usable when its owner is [-1] or the searching net; the
     core makes that test itself.
   - {b Prices} (negotiation only): an optional {!neg_state} plus the
     round's present price [present_q]. A step pays [present_q] per
     foreign tenant plus accumulated history, on the crossed edge and
     the entered node. Sequential searches pass no prices and pay only
     grid steps and vias.

   Four mechanical properties make this core fast without changing
   what it computes:

   - {b Quantized integer costs.} Every cost is an integer count of
     1/16 grid units ({!qscale}). A grid step is exactly 16 quanta,
     via penalties and congestion prices are rounded to the nearest
     quantum. Integer arithmetic removes float rounding epsilons from
     the inner loop and puts priorities on the lattice the
     {!Dqueue} dial queue needs.
   - {b No indirect calls per move.} Relaxing a move is one direct
     call that first rejects moves that cannot improve their target,
     then reads owner, blocked and price arrays; the queue pops
     without allocating and reports the popped key. Replacing the
     former record of six pricing closures (up to four indirect calls
     per move) and the queue's option-wrapped pages halved the cost
     per expansion, from ~123 ns to ~61 ns at jobs=1 on decoder (2-core
     x86-64 Linux host, median of 6 interleaved runs), with every
     search popping the same states in the same order.
   - {b An epoch-stamped arena.} [dist]/[parent] arrays are allocated
     once per row pair and invalidated by bumping a generation
     counter instead of refilling O(nx*ny*2) entries per net. The
     dial queue is likewise reused across searches.
   - {b Bounding-box pruning with provable fallback.} A net is first
     searched inside its pin bounding box widened by
     {!bbox_margin} columns. If that window search fails, the caller
     re-runs on the full grid, so a net is declared unroutable only
     when the full-grid search — exactly the pre-window behavior —
     fails. Routability is therefore unchanged; only the (rare)
     paths whose optimal detour leaves the window can differ, and
     then by at most the detour the window still admits.

   Where the time goes: the heuristic is Manhattan distance, and FIFO
   ties pop the goal last among equal f-values, so a search expands
   nearly its whole window (the f-plateau: on decoder the windows sum
   to 65.6 M nodes against 54.6 M expansions, and two row pairs carry
   ~99.1% of the expansions). Changing the tie-break or making
   the heuristic via-aware changes which optimal path is returned, so
   it is a QoR change, not a constant-factor one.

   Determinism: the search is a pure function of the grid, the owner
   and price arrays and the endpoints. Ties between equal-cost paths
   resolve by the dial queue's documented FIFO order, which depends
   only on push order — itself fixed by the (deterministic) expansion
   order — never on timing or domain count. *)

(* Directions: 0 = horizontal arrival (metal 1), 1 = vertical (metal 2). *)
let dir_h = 0
let dir_v = 1

(* A pair grid lives in pair-local coordinates: x from 0 at the row's
   left edge, y from 0 at the top of row [r]. Keeping the grid free of
   absolute y lets every row pair be routed on its own domain — a
   pair's decisions depend only on its own row's cells and its own
   gap, never on how much space pairs above it grabbed. Absolute
   coordinates are restored after all pairs finish. *)
type grid = {
  nx : int;
  ny : int;
  grid : float;
  blocked : bool array; (* nodes, nx*ny *)
  blocked_h : bool array; (* nodes where horizontal runs are forbidden
                             (cell pin edges, region boundaries) *)
  h_owner : int array; (* edge (ix,iy)-(ix+1,iy) *)
  v_owner : int array; (* edge (ix,iy)-(ix,iy+1) *)
  node_h : int array; (* node used by a horizontal run of net i *)
  node_v : int array;
}

let node_index g ix iy = (iy * g.nx) + ix

(* ---- cost quantization ---- *)

(* quanta per grid step; a power of two so grid-multiples stay exact *)
let qscale = 16

let quantize g cost = int_of_float ((cost /. g.grid *. float_of_int qscale) +. 0.5)

(* columns added around a net's pin bounding box before falling back
   to the full grid *)
let bbox_margin = 24

(* ---- negotiation prices ---- *)

(* Negotiation state: current tenancy counts and accumulated history,
   all in quantized units. The searching net's own usage is never in
   [*_use] (its previous path is untallied before it reroutes), so a
   slot's count is exactly its foreign tenancy. *)
type neg_state = {
  h_use : int array;
  v_use : int array;
  nh_use : int array;
  nv_use : int array;
  h_hist : int array;
  v_hist : int array;
  nh_hist : int array;
  nv_hist : int array;
}

let make_neg_state g =
  let n = g.nx * g.ny in
  {
    h_use = Array.make n 0;
    v_use = Array.make n 0;
    nh_use = Array.make n 0;
    nv_use = Array.make n 0;
    h_hist = Array.make n 0;
    v_hist = Array.make n 0;
    nh_hist = Array.make n 0;
    nv_hist = Array.make n 0;
  }

(* The hard constraint both modes share: a resource is usable by its
   owner, or by anyone while unowned. *)
let[@inline] free_for a i ~net =
  let o = a.(i) in
  o = -1 || o = net

(* ---- the search arena ---- *)

(* One arena serves every search of a row pair: arrays sized to the
   largest grid seen so far, invalidated per search by bumping
   [epoch] (a state's [dist]/[parent] are meaningful only when its
   stamp equals the current epoch). Nothing is re-allocated when the
   pair retries after promotion or space expansion — the arrays only
   grow, by doubling, when expansion enlarges the grid. *)
type arena = {
  mutable dist : int array; (* quantized g-cost per state *)
  mutable parent : int array;
  mutable stamp : int array;
  mutable epoch : int;
  queue : Dqueue.t;
  mutable expansions : int; (* states popped fresh, cumulative *)
}

let create_arena () =
  {
    dist = [||];
    parent = [||];
    stamp = [||];
    epoch = 0;
    queue = Dqueue.create ();
    expansions = 0;
  }

let ensure_arena a n =
  if Array.length a.dist < n then begin
    let n' = max n (2 * Array.length a.dist) in
    a.dist <- Array.make n' 0;
    a.parent <- Array.make n' 0;
    (* fresh stamps are 0; the epoch is always >= 1 by then *)
    a.stamp <- Array.make n' 0
  end

(* ---- the search itself ---- *)

(* admissible and consistent: every move costs at least one grid step *)
let[@inline] heuristic ~gx ~gy ix iy = qscale * (abs (ix - gx) + abs (iy - gy))

(* A* for one net between pin escapes, restricted to columns
   [lo_x..hi_x] (callers pass [0, nx-1] for the full grid). The first
   move is forced downward out of the source pin; the goal must be
   entered vertically. [net] is the searching net: owner marks of any
   other net are impassable. [prices] = (negotiation state, present
   price per foreign tenant) adds PathFinder prices; without it every
   passable move costs its grid step plus a via on a turn. Returns the
   node path source-first, or [None] when the goal is unreachable
   inside the window. *)
let run ?prices a g ~net ~via_q ~sx ~sy ~gx ~gy ~lo_x ~hi_x =
  let nx = g.nx and ny = g.ny in
  ensure_arena a (nx * ny * 2);
  a.epoch <- a.epoch + 1;
  let epoch = a.epoch in
  let queue = a.queue in
  Dqueue.clear queue;
  let dist = a.dist and parent = a.parent and stamp = a.stamp in
  let blocked = g.blocked and blocked_h = g.blocked_h in
  let h_owner = g.h_owner and v_owner = g.v_owner in
  let node_h = g.node_h and node_v = g.node_v in
  (* forced first move down out of the source pin; like the pre-arena
     cores, the seed move is never priced *)
  let seeded =
    sy + 1 < ny
    && free_for v_owner (node_index g sx sy) ~net
    && (not blocked.(node_index g sx (sy + 1)))
    && free_for node_v (node_index g sx (sy + 1)) ~net
  in
  let reconstruct goal_state =
    let rec walk s acc =
      if s = -2 then acc
      else
        let node = s lsr 1 in
        let ix = node mod nx and iy = node / nx in
        walk parent.(s) ((ix, iy, s land 1) :: acc)
    in
    Some ((sx, sy, dir_v) :: walk goal_state [])
  in
  (* straight-shot early exit: when the pins share a column and the
     whole descent is passable at zero price, that path costs exactly
     the Manhattan lower bound with zero vias — with via_q > 0 every
     other path is strictly costlier, so it is the unique optimum and
     the search can be skipped entirely *)
  let straight_shot () =
    sx = gx && via_q > 0 && seeded
    && begin
         let ok = ref true in
         let iy = ref (sy + 1) in
         while !ok && !iy < gy do
           let n = node_index g sx !iy in
           let nn = n + nx in
           if
             (not (free_for v_owner n ~net))
             || (blocked.(nn) && not (!iy + 1 = gy))
             || (not (free_for node_v nn ~net))
             ||
             match prices with
             | None -> false
             | Some (neg, present_q) ->
                 (present_q * neg.v_use.(n)) + neg.v_hist.(n) <> 0
                 || (present_q * neg.nv_use.(nn)) + neg.nv_hist.(nn) <> 0
           then ok := false;
           incr iy
         done;
         !ok
       end
  in
  (* Relax the move from state [s] (at [node], g-cost [d], arrived in
     [dir]) across edge [e] into [nnode] = ([nix], [niy]) on layer
     [ndir]. The goal node is exempt from the blocked test (it sits on
     the region boundary anyway); a run claims both of an edge's
     endpoints on its layer, so the departing node is checked too. The
     step costs a grid step, a via on a turn, and under negotiation the
     edge's price plus the entered node's (never the departing
     node's). Prices are never negative, so a move whose unpriced cost
     [base] cannot improve the target is rejected before any
     ownership or price array is read; most moves end there. *)
  let relax s d dir node e nnode nix niy ndir =
    let ns = (nnode * 2) + ndir in
    let fresh = stamp.(ns) <> epoch in
    let base = d + qscale + if dir <> ndir then via_q else 0 in
    if fresh || base < dist.(ns) then begin
      let horizontal = ndir = dir_h in
      let e_owner = if horizontal then h_owner else v_owner in
      let n_owner = if horizontal then node_h else node_v in
      if
        free_for e_owner e ~net
        && ((not blocked.(nnode)) || (nix = gx && niy = gy))
        && free_for n_owner nnode ~net
        && free_for n_owner node ~net
      then begin
        let nd =
          match prices with
          | None -> base
          | Some (neg, present_q) ->
              if horizontal then
                base
                + (present_q * neg.h_use.(e)) + neg.h_hist.(e)
                + (present_q * neg.nh_use.(nnode)) + neg.nh_hist.(nnode)
              else
                base
                + (present_q * neg.v_use.(e)) + neg.v_hist.(e)
                + (present_q * neg.nv_use.(nnode)) + neg.nv_hist.(nnode)
        in
        if fresh || nd < dist.(ns) then begin
          dist.(ns) <- nd;
          parent.(ns) <- s;
          stamp.(ns) <- epoch;
          Dqueue.push queue (nd + heuristic ~gx ~gy nix niy) ns
        end
      end
    end
  in
  if not seeded then None
  else if gy > sy && straight_shot () then begin
    a.expansions <- a.expansions + (gy - sy);
    let rec steps iy acc =
      if iy <= sy then acc else steps (iy - 1) ((sx, iy, dir_v) :: acc)
    in
    Some ((sx, sy, dir_v) :: steps gy [])
  end
  else begin
    let s0 = (node_index g sx (sy + 1) * 2) + dir_v in
    dist.(s0) <- qscale;
    parent.(s0) <- -2;
    stamp.(s0) <- epoch;
    Dqueue.push queue (qscale + heuristic ~gx ~gy sx (sy + 1)) s0;
    let dsan = Dsan.on () in
    let expansions = ref 0 in
    let goal_state = ref (-1) in
    (* the queue's payloads are states, so -1 means it ran dry *)
    let popped = ref (Dqueue.pop queue) in
    while !popped >= 0 do
      let s = !popped in
      let key = Dqueue.popped_key queue in
      let node = s lsr 1 in
      let dir = s land 1 in
      let iy = node / nx in
      let ix = node - (iy * nx) in
      (* the queue is cleared per search, so every popped state must
         carry the current epoch; a stale stamp means the freshness
         test below is about to read another search's dist value *)
      if dsan && stamp.(s) <> epoch then
        Dsan.record ~rule:"DSAN-EPOCH-01" ~site:"route.pairs"
          ~array_label:"search.arena" ~index:s
          (Printf.sprintf
             "popped state %d carries stamp %d but the arena is at epoch \
              %d: stale dist/parent from a previous search"
             s stamp.(s) epoch);
      (* an entry is fresh iff its key is the state's current f-value;
         improvements strictly lower f, so stale entries compare
         greater and are skipped exactly *)
      let d = dist.(s) in
      if key = d + heuristic ~gx ~gy ix iy then begin
        incr expansions;
        if ix = gx && iy = gy && dir = dir_v then goal_state := s
        else begin
          let bh_here = blocked_h.(node) in
          (* right / left: pin-edge rows forbid horizontal runs *)
          if ix + 1 <= hi_x && not (bh_here || blocked_h.(node + 1)) then
            relax s d dir node node (node + 1) (ix + 1) iy dir_h;
          if ix - 1 >= lo_x && not (bh_here || blocked_h.(node - 1)) then
            relax s d dir node (node - 1) (node - 1) (ix - 1) iy dir_h;
          (* down / up *)
          if iy + 1 < ny then
            relax s d dir node node (node + nx) ix (iy + 1) dir_v;
          if iy > 0 then
            relax s d dir node (node - nx) (node - nx) ix (iy - 1) dir_v
        end
      end;
      popped := if !goal_state >= 0 then -1 else Dqueue.pop queue
    done;
    a.expansions <- a.expansions + !expansions;
    if !goal_state < 0 then None else reconstruct !goal_state
  end

(* Window search with provable fallback: try the pin bounding box
   widened by [bbox_margin] columns; when that fails, re-run on the
   full grid so routability matches the unpruned search exactly. *)
let run_bboxed ?prices a g ~net ~via_q ~sx ~sy ~gx ~gy =
  let lo_x = max 0 (min sx gx - bbox_margin) in
  let hi_x = min (g.nx - 1) (max sx gx + bbox_margin) in
  match run ?prices a g ~net ~via_q ~sx ~sy ~gx ~gy ~lo_x ~hi_x with
  | Some _ as p -> p
  | None when lo_x > 0 || hi_x < g.nx - 1 ->
      run ?prices a g ~net ~via_q ~sx ~sy ~gx ~gy ~lo_x:0 ~hi_x:(g.nx - 1)
  | None -> None

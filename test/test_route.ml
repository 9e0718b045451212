(* Tests for the layer-wise A* router: path validity, exclusivity,
   space expansion, and the routed-design invariants. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let placed_problem name alg =
  let aoi = Circuits.benchmark name in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place alg p);
  p

let tiny_placed () =
  let aoi = Circuits.kogge_stone_adder 2 in
  let aqfp = Synth_flow.run_quiet aoi in
  let p = Problem.of_netlist Tech.default aqfp in
  ignore (Placer.place Placer.Superflow p);
  p

let test_routes_all_nets () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes);
  Array.iteri
    (fun i rt -> checki "net order" i rt.Router.net)
    r.Router.routes

let test_route_check_clean () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_routes_connect_pins () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  Array.iter
    (fun rt ->
      match (rt.Router.points, List.rev rt.Router.points) with
      | (x0, _) :: _, (xn, yn) :: _ ->
          let e = p.Problem.nets.(rt.Router.net) in
          Alcotest.(check (float 1e-6)) "start x" (Problem.pin_x p rt.Router.net `Src) x0;
          Alcotest.(check (float 1e-6)) "end x" (Problem.pin_x p rt.Router.net `Dst) xn;
          let dc = p.Problem.cells.(e.Problem.dst) in
          Alcotest.(check (float 1e-6)) "end y"
            (Problem.row_top p dc.Problem.row) yn
      | _ -> Alcotest.fail "empty route")
    r.Router.routes

let test_rectilinear_on_grid () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let grid = Tech.default.Tech.grid in
  Array.iter
    (fun rt ->
      let rec walk = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            checkb "rectilinear" true (x1 = x2 || y1 = y2);
            checkb "x on grid" true (Float.rem x1 grid < 1e-6);
            checkb "y on grid" true (Float.rem y1 grid < 1e-6);
            walk rest
        | _ -> ()
      in
      walk rt.Router.points)
    r.Router.routes

let test_wirelength_consistent () =
  let p = tiny_placed () in
  let r = Router.route_all p in
  let sum =
    Array.fold_left
      (fun acc rt ->
        let rec len = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
              Float.abs (x2 -. x1) +. Float.abs (y2 -. y1) +. len rest
          | _ -> 0.0
        in
        acc +. len rt.Router.points)
      0.0 r.Router.routes
  in
  Alcotest.(check (float 1e-3)) "sum of segments" sum r.Router.wirelength;
  (* every route is at least as long as its net's Manhattan distance *)
  Array.iter
    (fun rt ->
      let e = p.Problem.nets.(rt.Router.net) in
      let lower = Problem.net_length p e in
      checkb "no shorter than manhattan" true (rt.Router.length +. 1e-6 >= lower))
    r.Router.routes

let test_expansion_monotone_gaps () =
  let p = placed_problem "adder8" Placer.Superflow in
  let before = Array.copy p.Problem.row_gaps in
  let r = Router.route_all p in
  checkb "expansions recorded" true (r.Router.expansions >= 0);
  Array.iteri
    (fun i g -> checkb "gaps only grow" true (g >= before.(i) -. 1e-9))
    p.Problem.row_gaps

let test_larger_benchmarks_route () =
  List.iter
    (fun name ->
      let p = placed_problem name Placer.Superflow in
      let r = Router.route_all p in
      (match Router.check_routes p r with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      checkb (name ^ " wl sane") true (r.Router.wirelength > 0.0))
    [ "apc32"; "decoder" ]

let test_gordian_placement_routes_too () =
  let p = placed_problem "adder8" Placer.Gordian in
  let r = Router.route_all p in
  match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_negotiated_mode () =
  let p = tiny_placed () in
  let r = Router.route_all ~algorithm:Router.Negotiated p in
  (match Router.check_routes p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checki "one route per net" (Array.length p.Problem.nets) (Array.length r.Router.routes)

let test_negotiated_not_worse () =
  (* negotiation should never need more space than sequential claiming *)
  let route alg =
    let p = placed_problem "adder8" Placer.Superflow in
    let r = Router.route_all ~algorithm:alg p in
    (match Router.check_routes p r with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    r.Router.expansions
  in
  checkb "fewer or equal expansions" true
    (route Router.Negotiated <= route Router.Sequential)

(* ---------- congestion estimation ---------- *)

let test_congestion_density_manual () =
  (* two nets with overlapping spans in one gap -> density 2 *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Input [||] in
  let b = Netlist.add nl Netlist.Input [||] in
  let x = Netlist.add nl Netlist.Buf [| a |] in
  let y = Netlist.add nl Netlist.Buf [| b |] in
  ignore (Netlist.add nl Netlist.Output [| x |]);
  ignore (Netlist.add nl Netlist.Output [| y |]);
  ignore (Netlist.levelize nl);
  let p = Problem.of_netlist Tech.default nl in
  (* force the two gap-0 nets to cross: a at 0 -> x at far right, and
     b at far right -> y at 0 *)
  let cell_of node =
    let idx = ref (-1) in
    Array.iteri (fun i c -> if c.Problem.node = node then idx := i) p.Problem.cells;
    p.Problem.cells.(!idx)
  in
  (cell_of a).Problem.x <- 0.0;
  (cell_of b).Problem.x <- 500.0;
  (cell_of x).Problem.x <- 500.0;
  (cell_of y).Problem.x <- 0.0;
  checki "crossing nets overlap" 2 (Congestion.channel_density p 0);
  (* parallel (non-overlapping) spans -> density 1 *)
  (cell_of x).Problem.x <- 0.0;
  (cell_of y).Problem.x <- 500.0;
  checki "parallel nets" 1 (Congestion.channel_density p 0)

let test_congestion_preexpand_reduces_expansions () =
  let route_with_preexpand pre =
    let p = placed_problem "apc32" Placer.Superflow in
    if pre then ignore (Congestion.preexpand p);
    let r = Router.route_all p in
    r.Router.expansions
  in
  checkb "preexpansion saves router work" true
    (route_with_preexpand true <= route_with_preexpand false)

let test_congestion_report_renders () =
  let p = placed_problem "adder8" Placer.Superflow in
  let text = Congestion.report p in
  checkb "has rows" true (String.length text > 100)

let prop_routes_edge_disjoint =
  (* check_routes validates edge-disjointness; also verify net ids and
     via counts are consistent across random placement seeds *)
  QCheck.Test.make ~name:"routing is valid across placement seeds" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let aoi = Circuits.kogge_stone_adder 2 in
      let aqfp = Synth_flow.run_quiet aoi in
      let p = Problem.of_netlist Tech.default aqfp in
      ignore (Placer.place ~seed Placer.Superflow p);
      let r = Router.route_all p in
      Router.check_routes p r = Ok ()
      && r.Router.total_vias
         = Array.fold_left (fun acc rt -> acc + rt.Router.vias) 0 r.Router.routes)

(* Everything that must be deterministic about a routing result —
   excludes runtime_s. *)
let fingerprint r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Router.routes, r.Router.expansions, r.Router.node_expansions,
            r.Router.neg_rounds, r.Router.neg_rerouted, r.Router.wirelength,
            r.Router.total_vias )
          []))

let prop_algorithms_valid_and_jobs_invariant =
  (* over random placement seeds: both algorithms produce
     check_routes-clean results that are byte-identical at jobs=1 and
     jobs=4 (pair-local search state plus a fixed merge order make
     worker count unobservable) *)
  QCheck.Test.make ~name:"algorithms valid; jobs-invariant" ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let placed () =
        let aoi = Circuits.kogge_stone_adder 2 in
        let aqfp = Synth_flow.run_quiet aoi in
        let p = Problem.of_netlist Tech.default aqfp in
        ignore (Placer.place ~seed Placer.Superflow p);
        p
      in
      let route jobs alg =
        Parallel.set_jobs jobs;
        Fun.protect ~finally:Parallel.auto_jobs (fun () ->
            let p = placed () in
            let r = Router.route_all ~algorithm:alg p in
            (Router.check_routes p r = Ok (), fingerprint r))
      in
      List.for_all
        (fun alg ->
          let ok1, f1 = route 1 alg in
          let ok4, f4 = route 4 alg in
          ok1 && ok4 && f1 = f4)
        [ Router.Sequential; Router.Negotiated ])

let test_adder8_sequential_pinned () =
  (* the search is deterministic, so a real benchmark's sequential QoR
     is pinned exactly, not within tolerance; these are also the values
     the removed pre-overhaul core produced on the same input *)
  let p = placed_problem "adder8" Placer.Superflow in
  let r = Router.route_all p in
  Alcotest.(check (float 1e-6)) "wirelength" 133480.0 r.Router.wirelength;
  checki "vias" 1226 r.Router.total_vias;
  checki "space expansions" 65 r.Router.expansions;
  checki "node expansions" 510397 r.Router.node_expansions

let test_adder8_negotiated_pinned () =
  (* node expansions pin the search order itself: a change in which
     states pop, or when, moves this count even when the paths come
     out the same *)
  let p = placed_problem "adder8" Placer.Superflow in
  let r = Router.route_all ~algorithm:Router.Negotiated p in
  Alcotest.(check (float 1e-6)) "wirelength" 129050.0 r.Router.wirelength;
  checki "vias" 1224 r.Router.total_vias;
  checki "space expansions" 55 r.Router.expansions;
  checki "node expansions" 8828350 r.Router.node_expansions;
  checki "negotiation rounds" 5 r.Router.neg_rounds;
  checki "reroutes" 878 r.Router.neg_rerouted

(* ---------- independent search oracle ----------

   [Search.run] is checked against a plain O(V^2) Dijkstra written
   here from the move rules in search.ml's comments. It shares no
   code with the search: no [Dqueue], no index, ownership or price
   helpers; it reads only the [grid] and [neg_state] arrays. *)

type search_case = {
  g : Search.grid;
  net : int;
  prices : (Search.neg_state * int) option;
  via_q : int;
  sx : int;
  sy : int;
  gx : int;
  gy : int;
  lo_x : int;
  hi_x : int;
}

(* quanta per grid step *)
let oracle_qscale = 16
let oracle_h = 0
let oracle_v = 1

(* A small random grid (nx <= 14, ny <= 8) with blocked nodes,
   horizontal bans, owner marks of the searching net and of foreign
   nets (foreign marks forbid edges and make nodes inadmissible),
   endpoints, a column window around them, and either no prices
   (sequential) or random negotiation tallies and history with a
   random present price. *)
let random_search_case seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let chance pct = int 100 < pct in
  let nx = 2 + int 13 and ny = 2 + int 7 in
  let n = nx * ny in
  let net = 1 in
  (* owners 0 and 2 are foreign *)
  let owners () = Array.init n (fun _ -> if chance 15 then int 3 else -1) in
  let g =
    {
      Search.nx;
      ny;
      grid = 10.0;
      blocked = Array.init n (fun _ -> chance 12);
      blocked_h = Array.init n (fun _ -> chance 10);
      h_owner = owners ();
      v_owner = owners ();
      node_h = owners ();
      node_v = owners ();
    }
  in
  let sx = int nx in
  let gx = if chance 30 then sx else int nx in
  let sy = if chance 5 then ny - 1 else int (ny - 1) in
  let gy = int ny in
  (* blocked goals are common, to exercise the goal's exemption *)
  if chance 40 then g.Search.blocked.((gy * nx) + gx) <- true;
  let lo_x = int (min sx gx + 1) in
  let hi_x = max sx gx + int (nx - max sx gx) in
  let prices =
    if chance 30 then None
    else
      let use () = Array.init n (fun _ -> if chance 60 then 0 else int 4) in
      let hist () = Array.init n (fun _ -> if chance 50 then 0 else int 40) in
      let neg =
        {
          Search.h_use = use ();
          v_use = use ();
          nh_use = use ();
          nv_use = use ();
          h_hist = hist ();
          v_hist = hist ();
          nh_hist = hist ();
          nv_hist = hist ();
        }
      in
      (* often open a shared pin column down to the goal, so the
         straight-shot shortcut fires; a node on it is sometimes priced
         high, where the shortcut must give way to a detour *)
      if sx = gx && chance 50 then
        for iy = sy to gy - 1 do
          let i = (iy * nx) + sx in
          let mine () = if chance 50 then -1 else net in
          g.Search.v_owner.(i) <- mine ();
          g.Search.node_v.(i) <- mine ();
          g.Search.node_v.(i + nx) <- mine ();
          neg.Search.v_use.(i) <- 0;
          neg.Search.v_hist.(i) <- 0;
          if iy + 1 < gy then g.Search.blocked.(i + nx) <- false;
          neg.Search.nv_use.(i + nx) <- 0;
          neg.Search.nv_hist.(i + nx) <-
            (if chance 25 then 300 + int 300 else 0)
        done;
      Some (neg, 1 + int 30)
  in
  let via_q = if chance 20 then 0 else int 40 in
  { g; net; prices; via_q; sx; sy; gx; gy; lo_x; hi_x }

(* a resource is usable when unowned or owned by the searching net *)
let oracle_free c owner i =
  owner.(i) = -1 || owner.(i) = c.net

(* foreign tenancy at the present price plus history; nothing when
   the case is unpriced *)
let oracle_price c use hist i =
  match c.prices with
  | None -> 0
  | Some (neg, present_q) -> (present_q * (use neg).(i)) + (hist neg).(i)

(* The forced first move: straight down out of the source pin at a
   flat grid step, unpriced. It is not a search move, so the node it
   enters gets no goal exemption. *)
let oracle_seed c =
  let nx = c.g.Search.nx in
  let below = ((c.sy + 1) * nx) + c.sx in
  c.sy + 1 < c.g.Search.ny
  && oracle_free c c.g.Search.v_owner ((c.sy * nx) + c.sx)
  && (not c.g.Search.blocked.(below))
  && oracle_free c c.g.Search.node_v below

(* Every legal move out of state (ix, iy, arrived-in-dir), with its
   cost: horizontal moves stay in the window and are barred by
   [blocked_h] at either end; the crossed edge must be free for the
   net; the entered node must not be blocked unless it is the goal;
   the move's layer must be free for the net at both ends; a step
   costs a grid step, plus a via on a direction change, plus the
   edge's price, plus the entered node's price. *)
let oracle_moves c ix iy dir =
  let g = c.g in
  let nx = g.Search.nx in
  let here = (iy * nx) + ix in
  let step nix niy ndir edge e_owner n_owner e_price n_price =
    let there = (niy * nx) + nix in
    let goal = nix = c.gx && niy = c.gy in
    if
      oracle_free c e_owner edge
      && ((not g.Search.blocked.(there)) || goal)
      && oracle_free c n_owner there
      && oracle_free c n_owner here
    then
      let via = if ndir <> dir then c.via_q else 0 in
      [
        ( (nix, niy, ndir),
          oracle_qscale + via + e_price edge + n_price there );
      ]
    else []
  in
  let horizontal nix =
    if
      nix >= c.lo_x && nix <= c.hi_x
      && not (g.Search.blocked_h.(here) || g.Search.blocked_h.((iy * nx) + nix))
    then
      step nix iy oracle_h
        ((iy * nx) + min ix nix)
        g.Search.h_owner g.Search.node_h
        (oracle_price c (fun n -> n.Search.h_use) (fun n -> n.Search.h_hist))
        (oracle_price c (fun n -> n.Search.nh_use) (fun n -> n.Search.nh_hist))
    else []
  in
  let vertical niy =
    if niy >= 0 && niy < g.Search.ny then
      step ix niy oracle_v
        ((min iy niy * nx) + ix)
        g.Search.v_owner g.Search.node_v
        (oracle_price c (fun n -> n.Search.v_use) (fun n -> n.Search.v_hist))
        (oracle_price c (fun n -> n.Search.nv_use) (fun n -> n.Search.nv_hist))
    else []
  in
  horizontal (ix + 1) @ horizontal (ix - 1) @ vertical (iy + 1) @ vertical (iy - 1)

(* Cheapest cost of a path ending at the goal entered vertically, by
   Dijkstra with a linear minimum scan over (node, dir) states. *)
let oracle_optimum c =
  if not (oracle_seed c) then None
  else begin
    let nx = c.g.Search.nx in
    let state (ix, iy, dir) = (((iy * nx) + ix) * 2) + dir in
    let n = nx * c.g.Search.ny * 2 in
    let dist = Array.make n max_int and settled = Array.make n false in
    dist.(state (c.sx, c.sy + 1, oracle_v)) <- oracle_qscale;
    let rec loop () =
      let best = ref (-1) in
      for s = 0 to n - 1 do
        if
          (not settled.(s)) && dist.(s) < max_int
          && (!best < 0 || dist.(s) < dist.(!best))
        then best := s
      done;
      if !best >= 0 then begin
        let s = !best in
        settled.(s) <- true;
        let node = s / 2 in
        List.iter
          (fun (next, cost) ->
            let t = state next in
            if dist.(s) + cost < dist.(t) then dist.(t) <- dist.(s) + cost)
          (oracle_moves c (node mod nx) (node / nx) (s mod 2));
        loop ()
      end
    in
    loop ();
    let d = dist.(state (c.gx, c.gy, oracle_v)) in
    if d = max_int then None else Some d
  end

(* The cost of a returned path, or [None] if any step is not a legal
   move: it must start at the source pin, take the forced first move,
   continue by [oracle_moves] and end at the goal entered vertically. *)
let oracle_path_cost c path =
  let rec walk acc = function
    | [ last ] -> if last = (c.gx, c.gy, oracle_v) then Some acc else None
    | (ix, iy, dir) :: (next :: _ as rest) -> (
        match List.assoc_opt next (oracle_moves c ix iy dir) with
        | Some cost -> walk (acc + cost) rest
        | None -> None)
    | [] -> None
  in
  match path with
  | first :: (second :: _ as rest)
    when first = (c.sx, c.sy, oracle_v)
         && second = (c.sx, c.sy + 1, oracle_v)
         && oracle_seed c ->
      walk oracle_qscale rest
  | _ -> None

let prop_search_matches_oracle =
  (* [Search.run] finds no path exactly when the oracle proves the
     goal unreachable; otherwise its path is legal move by move and
     costs the oracle's optimum (the straight-shot shortcut included) *)
  QCheck.Test.make ~name:"search = Dijkstra oracle" ~count:300
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let c = random_search_case seed in
      let found =
        Search.run ?prices:c.prices (Search.create_arena ()) c.g ~net:c.net
          ~via_q:c.via_q ~sx:c.sx ~sy:c.sy ~gx:c.gx ~gy:c.gy ~lo_x:c.lo_x
          ~hi_x:c.hi_x
      in
      match (found, oracle_optimum c) with
      | None, None -> true
      | Some path, Some best -> (
          match oracle_path_cost c path with
          | Some cost when cost = best -> true
          | Some cost ->
              QCheck.Test.fail_reportf "path costs %d, oracle optimum %d" cost
                best
          | None -> QCheck.Test.fail_reportf "path takes an illegal move")
      | Some _, None ->
          QCheck.Test.fail_reportf "search found a path the oracle rules out"
      | None, Some best ->
          QCheck.Test.fail_reportf "search found no path; oracle optimum %d"
            best)

let () =
  Alcotest.run "sf_route"
    [
      ( "router",
        [
          Alcotest.test_case "routes all nets" `Quick test_routes_all_nets;
          Alcotest.test_case "check clean" `Quick test_route_check_clean;
          Alcotest.test_case "connects pins" `Quick test_routes_connect_pins;
          Alcotest.test_case "rectilinear on grid" `Quick test_rectilinear_on_grid;
          Alcotest.test_case "wirelength consistent" `Quick test_wirelength_consistent;
          Alcotest.test_case "expansion" `Slow test_expansion_monotone_gaps;
          Alcotest.test_case "larger benchmarks" `Slow test_larger_benchmarks_route;
          Alcotest.test_case "gordian placement" `Slow test_gordian_placement_routes_too;
          Alcotest.test_case "negotiated mode" `Quick test_negotiated_mode;
          Alcotest.test_case "negotiated expansions" `Slow test_negotiated_not_worse;
          Alcotest.test_case "congestion density" `Quick test_congestion_density_manual;
          Alcotest.test_case "preexpand" `Slow test_congestion_preexpand_reduces_expansions;
          Alcotest.test_case "congestion report" `Quick test_congestion_report_renders;
          QCheck_alcotest.to_alcotest prop_routes_edge_disjoint;
          Alcotest.test_case "adder8 sequential QoR pinned" `Quick
            test_adder8_sequential_pinned;
          Alcotest.test_case "adder8 negotiated QoR pinned" `Slow
            test_adder8_negotiated_pinned;
          QCheck_alcotest.to_alcotest prop_algorithms_valid_and_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_search_matches_oracle;
        ] );
    ]

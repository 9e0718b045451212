(* Product-path benchmark worker. perfbench/run.py starts one fresh
   process per measured run:

     perfbench.exe product WORKLOAD SEED JOBS OUTDIR
     perfbench.exe cold    WORKLOAD SEED JOBS OUTDIR
     perfbench.exe replay  WORKLOAD SEED JOBS OUTDIR

   WORKLOAD is DESIGN_cold or DESIGN_signoff, DESIGN a built-in
   benchmark name:

   - cold: [Flow.run_staged] with its defaults (SuperFlow placer,
     sequential router, resyn off, no db), GDS written;
   - signoff: a fresh db, then (1) a cold run to the check stage with
     the full check tier, the auto equivalence engine and full resyn
     effort, (2) an ECO rerun at placement seed SEED+6 (synth and
     resyn hit, the rest recomputes), (3) a warm rerun of (1).

   [product] makes the same call [superflow flow] makes and times it
   from outside, untraced. [cold] is [product] without the signoff
   workload's steps (2) and (3): run.py uses it for the repeat samples
   of flow_s within one run. [replay] calls each layer's public
   functions in [Flow.run_staged]'s compute order and records a span
   around every call; its GDS must equal the product run's byte for
   byte, so a drift in flow.ml fails loudly instead of measuring a
   shadow pipeline. Both print one JSON record on stdout; run.py
   checks and aggregates them. *)

let now = Wallclock.now_s

let fail fmt = Printf.ksprintf failwith fmt

(* ---- JSON records ---- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec emit b = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else fail "non-finite number in a record"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b ("\"" ^ Diag.json_escape s ^ "\"")
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (Str k);
          Buffer.add_char b ':';
          emit b v)
        kvs;
      Buffer.add_char b '}'
  | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        vs;
      Buffer.add_char b ']'

let print_record j =
  let b = Buffer.create 4096 in
  emit b j;
  print_endline (Buffer.contents b)

(* ---- workloads ---- *)

type workload = { design : string; signoff : bool }

let workload_of_string s =
  match String.rindex_opt s '_' with
  | None -> fail "workload %S is not DESIGN_cold or DESIGN_signoff" s
  | Some i -> (
      let design = String.sub s 0 i in
      match String.sub s (i + 1) (String.length s - i - 1) with
      | "cold" -> { design; signoff = false }
      | "signoff" -> { design; signoff = true }
      | _ -> fail "workload %S is not DESIGN_cold or DESIGN_signoff" s)

let resyn_effort w = if w.signoff then Resyn.Full else Resyn.Off
let check_tier w = if w.signoff then Check.Full else Check.Fast
let eco_seed seed = seed + 6

let open_db path =
  match Db.open_ path with
  | Ok d -> d
  | Error d -> fail "%s" (Diag.to_string d)

(* What [superflow flow DESIGN --jobs J [--db DIR]] does before its
   first stage: resolve the design to its AOI netlist, open the db,
   start the domain pool. Repeated from scratch (pool stopped, a fresh
   db directory each time) so run.py can report a median; the last
   repetition's netlist, db and pool are the ones the run uses. *)
let setup_reps = 31

let setup w ~jobs ~outdir =
  let once k =
    Parallel.shutdown ();
    let t0 = now () in
    let aoi = Circuits.benchmark w.design in
    let db =
      if w.signoff then
        Some (open_db (Filename.concat outdir (Printf.sprintf "db%d" k)))
      else None
    in
    Parallel.set_jobs jobs;
    ignore (Parallel.parallel_init ~label:"perfbench.pool" ~chunk:1 jobs Fun.id);
    (now () -. t0, aoi, db)
  in
  let reps = List.init setup_reps once in
  let _, aoi, db = List.nth reps (setup_reps - 1) in
  (List.map (fun (s, _, _) -> Num s) reps, aoi, db)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let md5_file path = Digest.to_hex (Digest.file path)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec tree_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + tree_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else In_channel.with_open_bin path (fun ic -> Int64.to_int (In_channel.length ic))

(* The deterministic counters both modes report; run.py requires them
   to repeat exactly across runs and between product and replay. *)
let det_of_result (r : Flow.result) =
  let s = Layout.stats r.Flow.layout in
  let rr = r.Flow.resyn_report in
  [
    ("wirelength_um", Num r.Flow.routing.Router.wirelength);
    ("vias", Int r.Flow.routing.Router.total_vias);
    ("jj", Int s.Layout.total_jj);
    ("wns_ps", Num r.Flow.sta.Sta.wns_ps);
    ("drc_violations", Int (List.length r.Flow.violations));
    ("buffer_lines", Int r.Flow.buffer_lines);
    ("synth.jj", Int r.Flow.synth_report.Synth_flow.jjs);
    ("synth.depth", Int r.Flow.synth_report.Synth_flow.delay);
    ("resyn.jj", Int rr.Resyn.jj_after);
    ("resyn.rewrites_tried", Int (Resyn.rewrites_tried rr));
    ("resyn.rewrites_accepted", Int (Resyn.rewrites_accepted rr));
    ("resyn.cec_proved", Int rr.Resyn.cec.Resyn.proved);
    ("resyn.cec_cached", Int rr.Resyn.cec.Resyn.cached);
    ("place.moves", Int r.Flow.placement.Placer.moves);
    ("place.hpwl_um", Num r.Flow.placement.Placer.hpwl);
    ("route.final_node_expansions", Int r.Flow.routing.Router.node_expansions);
    ("route.final_space_expansions", Int r.Flow.routing.Router.expansions);
    ("route.fix_rounds", Int r.Flow.drc_fix_rounds);
    ("layout.wires", Int s.Layout.n_wires);
    ( "check.diags",
      Int
        (match r.Flow.check_report with
        | Some c -> List.length c.Check.diags
        | None -> 0) );
  ]

let route_ok (r : Flow.result) =
  Router.check_routes r.Flow.problem r.Flow.routing = Ok ()

(* ---- product mode ---- *)

let product w ~full ~seed ~jobs ~outdir =
  let setup_s, aoi, db = setup w ~jobs ~outdir in
  let gds name = Filename.concat outdir (name ^ ".gds") in
  let run ~seed path =
    let t0 = now () in
    let st =
      if w.signoff then
        Flow.run_staged ~seed ~jobs ?db ~to_stage:Flow.Check
          ~check_tier:(check_tier w) ~equiv_engine:`Auto
          ~resyn_effort:(resyn_effort w) ~gds_path:path aoi
      else Flow.run_staged ~seed ~jobs ~gds_path:path aoi
    in
    let s = now () -. t0 in
    match st with
    | Ok st -> (st, s)
    | Error d -> fail "%s" (Diag.to_string d)
  in
  let result st =
    match st.Flow.result with Some r -> r | None -> fail "no flow result"
  in
  let st1, flow_s = run ~seed (gds "product") in
  (* the peak of the cold step, like flow_s; the signoff workload's
     later steps would raise it in the first process of a set only *)
  let peak_rss_mb = peak_rss_mb () in
  let r1 = result st1 in
  let seconds stage =
    match List.assoc_opt stage st1.Flow.outcomes with
    | Some (Flow.Cached s) | Some (Flow.Computed s) -> s
    | None -> 0.0
  in
  let computed_s =
    List.fold_left
      (fun acc (_, o) ->
        match o with Flow.Computed s -> acc +. s | Flow.Cached _ -> acc)
      0.0 st1.Flow.outcomes
  in
  let kinds st =
    List.map
      (fun (stage, o) ->
        (stage, match o with Flow.Cached _ -> `Cached | Flow.Computed _ -> `Computed))
      st.Flow.outcomes
  in
  (* stage timers exclude GDS writing and the db's own bookkeeping *)
  let overhead = ("db.cold_overhead_s", Num (flow_s -. computed_s)) in
  let rep st =
    match st.Flow.checked with
    | Some c -> c
    | None -> fail "signoff run has no check report"
  in
  let eco_s, checks, db_metrics =
    match db with
    | Some dbh when full ->
        let hits1 = Db.hits dbh and misses1 = Db.misses dbh in
        Db.reset_log dbh;
        let st2, eco_s = run ~seed:(eco_seed seed) (gds "eco") in
        let eco_hits = Db.hits dbh and eco_misses = Db.misses dbh in
        Db.reset_log dbh;
        let st3, warm_s = run ~seed (gds "warm") in
        ( eco_s,
          [
            ( "eco_reuses_synth_resyn",
              Bool
                (kinds st2
                = List.map
                    (function
                      | (Flow.Synth | Flow.Resyn) as s -> (s, `Cached)
                      | s -> (s, `Computed))
                    Flow.stages) );
            ("eco_route_ok", Bool (route_ok (result st2)));
            ( "warm_all_cached",
              Bool (kinds st3 = List.map (fun s -> (s, `Cached)) Flow.stages) );
            ( "warm_gds_equal",
              Bool (String.equal (read_file (gds "product")) (read_file (gds "warm")))
            );
            ( "warm_report_equal",
              Bool
                (String.equal
                   (Check.render_text (rep st1))
                   (Check.render_text (rep st3))) );
          ],
          [
            overhead;
            ("db.warm_rerun_s", Num warm_s);
            ("db.hits", Int (hits1 + eco_hits + Db.hits dbh));
            ("db.misses", Int (misses1 + eco_misses + Db.misses dbh));
            ("db.eco_hits", Int eco_hits);
            ("db.bytes", Int (tree_bytes (Db.dir dbh)));
          ] )
    | _ -> (0.0, [], [ overhead ])
  in
  let checks =
    if w.signoff then ("check_no_errors", Bool (Check.errors (rep st1) = 0)) :: checks
    else checks
  in
  print_record
    (Obj
       [
         ("mode", Str (if full then "product" else "cold"));
         ("ocaml", Str Sys.ocaml_version);
         ("setup_s", Arr setup_s);
         ("flow_s", Num flow_s);
         ("eco_s", Num eco_s);
         ("peak_rss_mb", Num peak_rss_mb);
         ("gds", Str (gds "product"));
         ("gds_md5", Str (md5_file (gds "product")));
         ("det", Obj (det_of_result r1));
         ( "stages",
           Obj
             (List.map
                (fun s -> ("stage." ^ Flow.stage_name s ^ "_s", Num (seconds s)))
                Flow.stages) );
         ("db", Obj db_metrics);
         ("checks", Obj (("route_ok", Bool (route_ok r1)) :: checks));
       ])

(* ---- replay mode: the traced stage graph ---- *)

type span = { name : string; id : int; parent : int; t0 : float; t1 : float }

type tracer = {
  mutable finished : span list;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable next : int;
}

let tracer () = { finished = []; stack = [ 0 ]; next = 0 }

(* a span whose interval was observed from outside, under the
   innermost open span *)
let record tr name t0 t1 =
  tr.next <- tr.next + 1;
  tr.finished <-
    { name; id = tr.next; parent = List.hd tr.stack; t0; t1 } :: tr.finished

let span tr name f =
  tr.next <- tr.next + 1;
  let id = tr.next and parent = List.hd tr.stack in
  tr.stack <- id :: tr.stack;
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  tr.stack <- List.tl tr.stack;
  tr.finished <- { name; id; parent; t0; t1 } :: tr.finished;
  v

(* A DRC cache that never hits: every tile and the density pass are
   recomputed, exactly as without a cache, and the find (a miss) and
   store of the density-verdict key ("drcd…", see flow.ml) bracket the
   density pass. [seen] counts completed density passes. *)
let density_probe tr =
  let started = ref None and seen = ref 0 in
  let is_density k = String.starts_with ~prefix:"drcd" k in
  let cache =
    {
      Drc.find =
        (fun k ->
          if is_density k then started := Some (now ());
          None);
      store =
        (fun k _ ->
          if is_density k then
            match !started with
            | Some t0 ->
                record tr "drc.density" t0 (now ());
                started := None;
                incr seen
            | None -> fail "DRC stored a density verdict it never looked up");
    }
  in
  (cache, seen)

let replay w ~seed ~jobs ~outdir =
  let setup_s, aoi, db = setup w ~jobs ~outdir in
  let tr = tracer () in
  let tech = Tech.default in
  let guard = w.signoff and engine = `Auto in
  (* the caches flow.ml wires to the db, over the replay's own fresh
     db, so proof reuse inside the run matches the product's *)
  let proof_cache =
    Option.map
      (fun dbh ->
        {
          Equiv.find = (fun k -> Db.find_proof dbh ~key:k);
          store = (fun k v -> Db.put_proof dbh ~key:k v);
        })
      db
  in
  let absint_cache =
    Option.map
      (fun dbh ->
        {
          Absint_check.find =
            (fun k ->
              match Db.find_proof dbh ~key:k with
              | None -> None
              | Some s -> (
                  match Artifact.diags.Artifact.decode s with
                  | Ok ds -> Some ds
                  | Error _ -> None));
          store =
            (fun k ds -> Db.put_proof dbh ~key:k (Artifact.diags.Artifact.encode ds));
        })
      db
  in
  let resyn_cache =
    Option.map
      (fun dbh ->
        {
          Resyn.find = (fun k -> Db.find_proof dbh ~key:k);
          store = (fun k v -> Db.put_proof dbh ~key:k v);
        })
      db
  in
  let drc_cache, density_seen = density_probe tr in
  let route_calls = ref 0 and node_exp = ref 0 and space_exp = ref 0 in
  let tiles_total = ref 0 and tiles_checked = ref 0 in
  let search p =
    span tr "route.search" (fun () ->
        let r = Router.route_all ~algorithm:Router.Sequential p in
        incr route_calls;
        node_exp := !node_exp + r.Router.node_expansions;
        space_exp := !space_exp + r.Router.expansions;
        r)
  in
  let drc layout =
    let before = !density_seen in
    let rep = span tr "drc.check" (fun () -> Drc.check ~cache:drc_cache layout) in
    if !density_seen <> before + 1 then
      fail "DRC never looked up its density-verdict key; drc.density_s is unmeasurable";
    tiles_total := !tiles_total + rep.Drc.stats.Drc.tiles_total;
    tiles_checked := !tiles_checked + rep.Drc.stats.Drc.tiles_checked;
    rep.Drc.diags
  in
  let gds = Filename.concat outdir "replay.gds" in
  let t_start = now () in
  let r =
    span tr "flow" (fun () ->
        let aqfp0, synth_report =
          span tr "synth" (fun () ->
              Synth_flow.run ~check:guard ~engine ?cache:proof_cache aoi)
        in
        let aqfp1, resyn_report =
          span tr "resyn" (fun () ->
              let nl, rep =
                span tr "resyn.run" (fun () ->
                    Resyn.run ~effort:(resyn_effort w) ?cache:resyn_cache aqfp0)
              in
              if guard && resyn_effort w <> Resyn.Off then
                span tr "resyn.guard" (fun () ->
                    let ds =
                      Equiv.check_pair ~engine ?cache:proof_cache ~stage:"resyn"
                        aqfp0 nl
                    in
                    ( nl,
                      {
                        rep with
                        Resyn.diags = List.sort Diag.compare (rep.Resyn.diags @ ds);
                      } ))
              else (nl, rep))
        in
        let aqfp, p, placement, buffer_lines =
          span tr "place" (fun () ->
              let p0 =
                span tr "place.problem" (fun () -> Problem.of_netlist tech aqfp1)
              in
              let placement =
                span tr "place.placer" (fun () ->
                    Placer.place ~seed Placer.Superflow p0)
              in
              let aqfp, p, lines =
                span tr "place.bufferline" (fun () -> Bufferline.insert aqfp1 p0)
              in
              if lines > 0 then
                span tr "place.settle" (fun () ->
                    ignore
                      (Detailed.run
                         ~options:
                           { Detailed.default_options with max_passes = 3; window = 2 }
                         p));
              span tr "place.preexpand" (fun () -> ignore (Congestion.preexpand p));
              (aqfp, p, placement, lines))
        in
        let routing, violations, rounds, layout =
          span tr "route" (fun () ->
              let rec fix_loop routing rounds =
                let layout =
                  span tr "layout.build" (fun () -> Layout.build p routing)
                in
                let violations = drc layout in
                if violations = [] || rounds >= 3 then
                  (routing, violations, rounds, layout)
                else
                  match Drc.gap_hints p violations with
                  | [] -> (routing, violations, rounds, layout)
                  | gaps ->
                      List.iter
                        (fun g ->
                          if g >= 0 && g < Array.length p.Problem.row_gaps then
                            p.Problem.row_gaps.(g) <-
                              p.Problem.row_gaps.(g) +. tech.Tech.s_min)
                        gaps;
                      fix_loop (search p) (rounds + 1)
              in
              fix_loop (search p) 0)
        in
        let sta, energy =
          span tr "layout" (fun () ->
              let sta =
                span tr "timing.sta" (fun () -> Sta.analyze_routed p routing)
              in
              (sta, span tr "energy" (fun () -> Energy.of_netlist tech aqfp)))
        in
        span tr "gds.write" (fun () -> Layout.write_gds gds layout);
        let r0 =
          {
            Flow.aqfp_netlist = aqfp;
            problem = p;
            routing;
            layout;
            violations;
            synth_report;
            resyn_report;
            placement;
            sta;
            energy;
            buffer_lines;
            drc_fix_rounds = rounds;
            check_report = None;
            times =
              {
                Flow.synth_s = 0.0;
                resyn_s = 0.0;
                place_s = 0.0;
                route_s = 0.0;
                layout_s = 0.0;
                check_s = 0.0;
              };
          }
        in
        if w.signoff then
          let rep =
            span tr "check" (fun () ->
                Check.run
                  ~header:
                    [
                      ("tier", Check.tier_name (check_tier w));
                      ("engine", Equiv.engine_name engine);
                    ]
                  (Flow.check_passes ~tier:(check_tier w) ?absint_cache r0))
          in
          { r0 with Flow.check_report = Some rep }
        else r0)
  in
  let wall = now () -. t_start in
  let check_stat pred =
    match r.Flow.check_report with
    | None -> 0.0
    | Some c ->
        List.fold_left
          (fun acc s -> if pred s.Check.pass_name then acc +. s.Check.seconds else acc)
          0.0 c.Check.stats
  in
  (* work counters, which run.py requires to repeat exactly; per-layer
     times are span sums, taken by run.py *)
  let counters =
    [
      ("route.calls", Int !route_calls);
      ("route.node_expansions", Int !node_exp);
      ("route.space_expansions", Int !space_exp);
      ("drc.tiles_total", Int !tiles_total);
      ("drc.tiles_checked", Int !tiles_checked);
      ("gds.bytes", Int (tree_bytes gds));
    ]
  in
  print_record
    (Obj
       [
         ("mode", Str "replay");
         ("ocaml", Str Sys.ocaml_version);
         ("setup_s", Arr setup_s);
         ("wall_s", Num wall);
         ("gds", Str gds);
         ("gds_md5", Str (md5_file gds));
         ("det", Obj (det_of_result r));
         ("counters", Obj counters);
         ( "check_times",
           Obj
             [
               ("check.absint_s", Num (check_stat (String.starts_with ~prefix:"absint")));
               ("check.lvs_s", Num (check_stat (String.equal "lvs")));
             ] );
         ( "spans",
           Arr
             (List.rev_map
                (fun s ->
                  Obj
                    [
                      ("name", Str s.name);
                      ("id", Int s.id);
                      ("parent", Int s.parent);
                      ("start", Num (s.t0 -. t_start));
                      ("end", Num (s.t1 -. t_start));
                    ])
                tr.finished) );
         ("checks", Obj [ ("route_ok", Bool (route_ok r)) ]);
       ])

let () =
  match Array.to_list Sys.argv with
  | [ _; mode; workload; seed; jobs; outdir ] -> (
      let w = workload_of_string workload in
      let seed = int_of_string seed and jobs = int_of_string jobs in
      match mode with
      | "product" -> product w ~full:true ~seed ~jobs ~outdir
      | "cold" -> product w ~full:false ~seed ~jobs ~outdir
      | "replay" -> replay w ~seed ~jobs ~outdir
      | m -> fail "unknown mode %S (product|cold|replay)" m)
  | _ ->
      prerr_endline
        "usage: perfbench.exe (product|cold|replay) WORKLOAD SEED JOBS OUTDIR";
      exit 2

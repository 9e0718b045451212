type times = {
  synth_s : float;
  resyn_s : float;
  place_s : float;
  route_s : float;
  layout_s : float;
  check_s : float;
}

type result = {
  aqfp_netlist : Netlist.t;
  problem : Problem.t;
  routing : Router.result;
  layout : Layout.t;
  violations : Diag.t list;
  synth_report : Synth_flow.report;
  resyn_report : Resyn.report;
  placement : Placer.result;
  sta : Sta.report;
  energy : Energy.report;
  buffer_lines : int;
  drc_fix_rounds : int;
  check_report : Check.report option;
  times : times;
}

let check_passes ?(tier = Check.Fast) ?absint_cache r =
  [
    Check.pass "lint" (fun () -> Lint.check ~tier r.aqfp_netlist);
  ]
  @ Absint_check.passes ?cache:absint_cache r.aqfp_netlist
  @ [
      Check.pass "aqfp" (fun () -> Aqfp_check.check r.aqfp_netlist);
      Check.of_diags "equiv"
        (r.synth_report.Synth_flow.guard_diags @ r.resyn_report.Resyn.diags);
      Check.pass "place" (fun () -> Place_audit.check r.aqfp_netlist r.problem);
      Check.pass "route" (fun () ->
          match Router.check_routes r.problem r.routing with
          | Ok () -> []
          | Error e ->
              [ Diag.error ~rule:"RT-CONN-01" Diag.Global "%s" e ]);
      Check.of_diags "drc" r.violations;
      Check.pass "lvs" (fun () -> Lvs.check r.problem r.layout);
    ]

let version = "0.1.0"

(* ---- the explicit stage graph ---- *)

type stage = Synth | Resyn | Place | Route | Layout | Check

let stages = [ Synth; Resyn; Place; Route; Layout; Check ]

let stage_name = function
  | Synth -> "synth"
  | Resyn -> "resyn"
  | Place -> "place"
  | Route -> "route"
  | Layout -> "layout"
  | Check -> "check"

let stage_of_string s =
  match List.find_opt (fun st -> String.equal (stage_name st) s) stages with
  | Some st -> Ok st
  | None ->
      Error
        (Printf.sprintf "unknown stage %S (%s)" s
           (String.concat "|" (List.map stage_name stages)))

let stage_rank s = Option.get (List.find_index (fun st -> st = s) stages)

type outcome = Cached of float | Computed of float

type staged = {
  outcomes : (stage * outcome) list;
  db_warnings : Diag.t list;
  synth : (Netlist.t * Synth_flow.report) option;
  resyned : (Netlist.t * Resyn.report) option;
  placed : (Netlist.t * Problem.t * Placer.result * int) option;
  routed : (Router.result * Problem.t * Diag.t list * int) option;
  built : (Layout.t * Sta.report * Energy.report) option;
  checked : Check.report option;
  result : result option;
}

(* engine format tag: part of every cache key, so changing the stage
   graph (not just one codec) invalidates the whole cache *)
let graph_version = "sf-flow-graph-5"

exception Stage_failed of Diag.t

let ( let* ) = Result.bind

let slot slots name =
  match List.assoc_opt name slots with
  | Some v -> Ok v
  | None -> Error (Codec.err ~rule:"DB-SLOT-01" "manifest lacks slot %S" name)

let load_obj db codec slots name =
  let* h = slot slots name in
  let* bytes = Db.get_object db h in
  codec.Artifact.decode bytes

let put db codec v = Db.put_object db (codec.Artifact.encode v)

(* Diagnostic lists memoize through the proof store under their
   content-hash keys; decode failures (stale codec) degrade to a
   recompute-and-overwrite. Shared by the DRC tile verdicts and the
   absint findings. *)
let diags_memo dbh =
  ( (fun k ->
      Option.bind (Db.find_proof dbh ~key:k) (fun s ->
          Result.to_option (Artifact.diags.Artifact.decode s))),
    fun k ds -> Db.put_proof dbh ~key:k (Artifact.diags.Artifact.encode ds) )

(* DRC tile verdicts are keyed "drct1:"/"drcd1:", so an ECO rerun
   re-checks only the tiles whose geometry changed *)
let drc_cache_of_db dbh =
  let find, store = diags_memo dbh in
  { Drc.find; store }

let run_staged ?(tech = Tech.default) ?(algorithm = Placer.Superflow)
    ?(router = Router.Sequential) ?(seed = 1) ?jobs ?db ?(from_stage = Synth)
    ?(to_stage = Layout) ?(equiv_engine = `Auto) ?(check_tier = Check.Fast)
    ?(resyn_effort = Resyn.Off) ?gds_path ?def_path aoi =
  (match jobs with Some j -> Parallel.set_jobs j | None -> ());
  (* running "to check" switches the synthesis equivalence guards on,
     exactly like [run ~check:true] *)
  let guard = stage_rank to_stage >= stage_rank Check in
  let guard_part () =
    if guard then "guards-" ^ Equiv.engine_name equiv_engine else "noguards"
  in
  (* proof verdicts are memoized per cone pair in the database: a warm
     [--check] rerun whose synth stage somehow misses (say, a changed
     engine) still re-proves nothing that is already on disk *)
  let proof_cache =
    match db with
    | Some dbh when guard ->
        Some
          {
            Equiv.find = (fun k -> Db.find_proof dbh ~key:k);
            store = (fun k v -> Db.put_proof dbh ~key:k v);
          }
    | _ -> None
  in
  (* the absint dataflow findings memoize through the same proof
     store, keyed by the netlist's structural hash *)
  let absint_cache =
    match db with
    | Some dbh when guard ->
        let find, store = diags_memo dbh in
        Some { Absint_check.find; store }
    | _ -> None
  in
  if stage_rank from_stage > stage_rank to_stage then
    Error
      (Codec.err ~rule:"DB-RANGE-01" "--from %s is after --to %s"
         (stage_name from_stage) (stage_name to_stage))
  else if db = None && from_stage <> Synth then
    Error
      (Codec.err ~rule:"DB-RANGE-01"
         "--from %s needs a design database to load the earlier stages from"
         (stage_name from_stage))
  else begin
    let outcomes = ref [] in
    let note stage o = outcomes := (stage, o) :: !outcomes in
    let exception Stop in
    (* One stage: cache lookup (when a database is attached), else
       compute and persist; a stage past [to_stage] raises [Stop] and
       ends the graph. [parts] builds the cache key — input artifact
       hashes plus every parameter that affects the stage; the
       worker-pool size is deliberately absent (results are
       bit-identical at any [--jobs]). Corrupt cache entries degrade
       to a miss with a warning and are overwritten. *)
    let exec stage ~parts ~load ~store compute =
      if stage_rank stage > stage_rank to_stage then raise Stop;
      let name = stage_name stage in
      match db with
      | None ->
          let v, s = Wallclock.time compute in
          note stage (Computed s);
          (v, [])
      | Some dbh -> (
          let key = Db.stage_key (graph_version :: name :: parts ()) in
          let cached =
            match Db.get_stage dbh ~stage:name ~key with
            | None -> None
            | Some (slots, scalars) -> (
                match Wallclock.time (fun () -> load dbh slots scalars) with
                | Ok v, s -> Some (v, s, slots)
                | Error d, _ ->
                    Db.warn dbh
                      {
                        d with
                        Diag.severity = Diag.Warning;
                        message =
                          Printf.sprintf
                            "stage %s: unusable cache entry, recomputing (%s)"
                            name d.Diag.message;
                      };
                    None)
          in
          match cached with
          | Some (v, s, slots) ->
              Db.record dbh name Db.Hit s;
              note stage (Cached s);
              (v, slots)
          | None ->
              if stage_rank stage < stage_rank from_stage then
                raise
                  (Stage_failed
                     (Codec.err ~rule:"DB-FROM-01"
                        "stage %s is not in the database for these inputs; \
                         rerun without --from"
                        name));
              let v, s = Wallclock.time compute in
              let slots, scalars = store dbh v in
              Db.put_stage dbh ~stage:name ~key ~slots ~scalars;
              Db.record dbh name Db.Miss s;
              note stage (Computed s);
              (v, slots))
    in
    let shash slots name =
      match List.assoc_opt name slots with Some h -> h | None -> "?"
    in
    let seconds stage =
      match List.assoc_opt stage !outcomes with
      | Some (Cached s) | Some (Computed s) -> s
      | None -> 0.0
    in
    let times () =
      {
        synth_s = seconds Synth;
        resyn_s = seconds Resyn;
        place_s = seconds Place;
        route_s = seconds Route;
        layout_s = seconds Layout;
        check_s = seconds Check;
      }
    in
    let h_aoi = lazy (Db.hash (aoi |> Artifact.netlist.Artifact.encode)) in
    let h_tech = lazy (Db.hash (tech |> Artifact.tech.Artifact.encode)) in
    (* what has been produced so far; a [Stop] returns it as is *)
    let st =
      ref
        {
          outcomes = [];
          db_warnings = [];
          synth = None;
          resyned = None;
          placed = None;
          routed = None;
          built = None;
          checked = None;
          result = None;
        }
    in
    let finish () =
      Ok
        {
          !st with
          outcomes = List.rev !outcomes;
          db_warnings =
            (match db with Some dbh -> Db.warnings dbh | None -> []);
        }
    in
    try
      (* 1. logic synthesis: AOI -> MAJ -> balanced AQFP netlist *)
      let ((aqfp0, synth_report) as synth), s_synth =
        exec Synth
          ~parts:(fun () -> [ Lazy.force h_aoi; guard_part () ])
          ~load:(fun db slots _ ->
            let* nl = load_obj db Artifact.netlist slots "aqfp0" in
            let* rep = load_obj db Artifact.synth_report slots "report" in
            Ok (nl, rep))
          ~store:(fun db (nl, rep) ->
            ( [
                ("aqfp0", put db Artifact.netlist nl);
                ("report", put db Artifact.synth_report rep);
              ],
              [] ))
          (fun () ->
            Synth_flow.run ~check:guard ~engine:equiv_engine ?cache:proof_cache
              aoi)
      in
      st := { !st with synth = Some synth };
      (* 2. cut-based majority resynthesis over the mapped netlist —
         identity at the default [Off] effort (the stage still exists
         and caches, so the graph shape is effort-independent).
         Window-CEC verdicts memoize through the proof store; with
         guards on, the stage's own whole-netlist equivalence check
         lands in its report diagnostics (and hence the [equiv] check
         pass). *)
      let ((aqfp1, resyn_report) as resyned), s_resyn =
        exec Resyn
          ~parts:(fun () ->
            [
              shash s_synth "aqfp0";
              "effort-" ^ Resyn.effort_name resyn_effort;
              guard_part ();
            ])
          ~load:(fun db slots _ ->
            let* nl = load_obj db Artifact.netlist slots "aqfp1" in
            let* rep = load_obj db Artifact.resyn_report slots "report" in
            Ok (nl, rep))
          ~store:(fun db (nl, rep) ->
            ( [
                ("aqfp1", put db Artifact.netlist nl);
                ("report", put db Artifact.resyn_report rep);
              ],
              [] ))
          (fun () ->
            let resyn_cache =
              Option.map
                (fun dbh ->
                  {
                    Resyn.find = (fun k -> Db.find_proof dbh ~key:k);
                    store = (fun k v -> Db.put_proof dbh ~key:k v);
                  })
                db
            in
            let nl, rep =
              Resyn.run ~effort:resyn_effort ?cache:resyn_cache aqfp0
            in
            let rep =
              if guard && resyn_effort <> Resyn.Off then
                let ds =
                  Equiv.check_pair ~engine:equiv_engine ?cache:proof_cache
                    ~stage:"resyn" aqfp0 nl
                in
                { rep with Resyn.diags = List.sort Diag.compare (rep.Resyn.diags @ ds) }
              else rep
            in
            (nl, rep))
      in
      st := { !st with resyned = Some resyned };
      (* 3. placement + max-wirelength buffer-line insertion (re-threads
         long hops through whole rows of buffers, keeping the pipeline
         balanced) + channel pre-sizing for the router *)
      let ((aqfp, p, placement, buffer_lines) as placed), s_place =
        exec Place
          ~parts:(fun () ->
            [
              shash s_resyn "aqfp1";
              Lazy.force h_tech;
              Placer.algorithm_name algorithm;
              string_of_int seed;
            ])
          ~load:(fun db slots scalars ->
            let* aqfp = load_obj db Artifact.netlist slots "aqfp" in
            let* p = load_obj db Artifact.problem slots "problem" in
            let* placement = load_obj db Artifact.placement slots "placement" in
            let* lines = slot scalars "buffer_lines" in
            Ok (aqfp, p, placement, lines))
          ~store:(fun db (aqfp, p, placement, lines) ->
            ( [
                ("aqfp", put db Artifact.netlist aqfp);
                ("problem", put db Artifact.problem p);
                ("placement", put db Artifact.placement placement);
              ],
              [ ("buffer_lines", lines) ] ))
          (fun () ->
            let p0 = Problem.of_netlist tech aqfp1 in
            let placement = Placer.place ~seed algorithm p0 in
            let aqfp, p, buffer_lines = Bufferline.insert aqfp1 p0 in
            (* newly inserted buffer rows start at crude midpoints;
               one light detailed pass settles them *)
            if buffer_lines > 0 then
              ignore
                (Detailed.run
                   ~options:
                     { Detailed.default_options with max_passes = 3; window = 2 }
                   p);
            (* pre-size channels from the placement's channel density
               so the router's reactive expansion loop has less to do *)
            ignore (Congestion.preexpand p);
            (aqfp, p, placement, buffer_lines))
      in
      st := { !st with placed = Some placed };
      (* 4. routing + DRC fix loop: violating regions get extra space
         and are re-routed. The final layout of the loop is kept as an
         in-memory memo so a cold run does not rebuild it in stage 5;
         it is not persisted (stage 5 owns the layout artifact). *)
      let memo = ref None in
      let ((routing, p', violations, rounds) as routed), s_route =
        exec Route
          ~parts:(fun () ->
            [
              shash s_place "problem";
              (match router with
              | Router.Sequential -> "sequential"
              | Router.Negotiated -> "negotiated");
            ])
          ~load:(fun db slots scalars ->
            let* routing = load_obj db Artifact.routing slots "routing" in
            let* p' = load_obj db Artifact.problem slots "problem" in
            let* violations = load_obj db Artifact.drc slots "drc" in
            let* rounds = slot scalars "fix_rounds" in
            Ok (routing, p', violations, rounds))
          ~store:(fun db (routing, p', violations, rounds) ->
            ( [
                ("routing", put db Artifact.routing routing);
                ("problem", put db Artifact.problem p');
                ("drc", put db Artifact.drc violations);
              ],
              [ ("fix_rounds", rounds) ] ))
          (fun () ->
            let drc_cache = Option.map drc_cache_of_db db in
            let rec fix_loop routing rounds =
              let layout = Layout.build p routing in
              let violations = (Drc.check ?cache:drc_cache layout).Drc.diags in
              let gaps =
                if violations = [] || rounds >= 3 then []
                else Drc.gap_hints p violations
              in
              if gaps = [] then begin
                memo := Some layout;
                (routing, p, violations, rounds)
              end
              else begin
                List.iter
                  (fun g ->
                    if g >= 0 && g < Array.length p.Problem.row_gaps then
                      p.Problem.row_gaps.(g) <-
                        p.Problem.row_gaps.(g) +. tech.Tech.s_min)
                  gaps;
                fix_loop (Router.route_all ~algorithm:router p) (rounds + 1)
              end
            in
            fix_loop (Router.route_all ~algorithm:router p) 0)
      in
      st := { !st with routed = Some routed };
      (* DEF captures placement + routing; it can be written as soon as
         the route stage has run *)
      Option.iter
        (fun path ->
          Def.write_file path (Def.of_design ~design:"superflow" p' routing))
        def_path;
      (* 5. layout assembly + sign-off timing (actual routed lengths)
         + adiabatic energy *)
      let ((layout, sta, energy) as built), s_layout =
        exec Layout
          ~parts:(fun () ->
            [
              shash s_route "problem";
              shash s_route "routing";
              shash s_place "aqfp";
            ])
          ~load:(fun db slots _ ->
            let* layout = load_obj db Artifact.layout slots "layout" in
            let* sta = load_obj db Artifact.sta slots "sta" in
            let* energy = load_obj db Artifact.energy slots "energy" in
            Ok (layout, sta, energy))
          ~store:(fun db (layout, sta, energy) ->
            ( [
                ("layout", put db Artifact.layout layout);
                ("sta", put db Artifact.sta sta);
                ("energy", put db Artifact.energy energy);
              ],
              [] ))
          (fun () ->
            let layout =
              match !memo with Some l -> l | None -> Layout.build p' routing
            in
            let sta = Sta.analyze_routed p' routing in
            let energy = Energy.of_netlist tech aqfp in
            (layout, sta, energy))
      in
      Option.iter (fun path -> Layout.write_gds path layout) gds_path;
      (* the classic flow result exists as soon as every physical stage
         has run *)
      let r0 =
        {
          aqfp_netlist = aqfp;
          problem = p';
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
          times = times ();
        }
      in
      st := { !st with built = Some built; result = Some r0 };
      (* 6. the static-verification gate over every stage handoff *)
      let report, _ =
        exec Check
          ~parts:(fun () ->
            [
              shash s_place "aqfp";
              shash s_synth "report";
              shash s_resyn "report";
              shash s_route "problem";
              shash s_route "routing";
              shash s_route "drc";
              shash s_layout "layout";
              "tier-" ^ Check.tier_name check_tier;
              "engine-" ^ Equiv.engine_name equiv_engine;
            ])
          ~load:(fun db slots _ ->
            load_obj db Artifact.check_report slots "report")
          ~store:(fun db rep ->
            ([ ("report", put db Artifact.check_report rep) ], []))
          (fun () ->
            Check.run
              ~header:
                [
                  ("tier", Check.tier_name check_tier);
                  ("engine", Equiv.engine_name equiv_engine);
                ]
              (check_passes ~tier:check_tier ?absint_cache r0))
      in
      st :=
        {
          !st with
          checked = Some report;
          result =
            Some { r0 with check_report = Some report; times = times () };
        };
      finish ()
    with
    | Stop -> finish ()
    | Stage_failed d -> Error d
  end

let run ?tech ?algorithm ?router ?seed ?jobs ?(check = false) ?equiv_engine
    ?check_tier ?resyn_effort ?db ?gds_path ?def_path aoi =
  match
    run_staged ?tech ?algorithm ?router ?seed ?jobs ?db
      ~to_stage:(if check then Check else Layout)
      ?equiv_engine ?check_tier ?resyn_effort ?gds_path ?def_path aoi
  with
  | Ok { result = Some r; _ } -> r
  | Ok _ -> assert false (* to_stage >= Layout always yields a result *)
  | Error d -> failwith (Diag.to_string d)

let run_verilog ?tech ?algorithm ?router ?seed ?jobs ?check ?equiv_engine
    ?check_tier ?resyn_effort ?db ?gds_path ?def_path source =
  match Verilog.parse source with
  | Error e -> Error e
  | Ok aoi ->
      Ok (run ?tech ?algorithm ?router ?seed ?jobs ?check ?equiv_engine
            ?check_tier ?resyn_effort ?db ?gds_path ?def_path aoi)

let run_bench_file ?tech ?algorithm ?router ?seed ?jobs ?check ?equiv_engine
    ?check_tier ?resyn_effort ?db ?gds_path ?def_path path =
  match Bench_parser.parse_file path with
  | Error e -> Error e
  | Ok aoi ->
      Ok (run ?tech ?algorithm ?router ?seed ?jobs ?check ?equiv_engine
            ?check_tier ?resyn_effort ?db ?gds_path ?def_path aoi)

let pp_summary ppf r =
  let s = Layout.stats r.layout in
  Format.fprintf ppf "@[<v>synthesis: %a" Synth_flow.pp_report r.synth_report;
  (match r.resyn_report.Resyn.effort with
  | Resyn.Off -> ()
  | e ->
      let rr = r.resyn_report in
      Format.fprintf ppf
        "@,resyn (%s): jj %d -> %d, depth %d -> %d, %d/%d rewrites in %d \
         round(s)"
        (Resyn.effort_name e) rr.Resyn.jj_before rr.Resyn.jj_after
        rr.Resyn.depth_before rr.Resyn.depth_after
        (Resyn.rewrites_accepted rr) (Resyn.rewrites_tried rr) rr.Resyn.rounds);
  Format.fprintf ppf
    "@,placement: %a@,buffer lines: %d@,routing: wl=%.0fum vias=%d expansions=%d@,layout: %a@,timing: %a@,energy: %a@,drc: %d violation(s), %d fix round(s)@]"
    Placer.pp_result r.placement
    r.buffer_lines r.routing.Router.wirelength r.routing.Router.total_vias
    r.routing.Router.expansions Layout.pp_stats s Sta.pp_report r.sta Energy.pp
    r.energy
    (List.length r.violations) r.drc_fix_rounds;
  match r.check_report with
  | Some rep -> Format.fprintf ppf "@\n%a" Check.pp_summary rep
  | None -> ()

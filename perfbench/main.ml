(* Closed-loop performance benchmark of the LIFEGUARD reproduction.

   Usage: main.exe --workload converge|churn|fleet --seed N --seconds S
                   --trace 0|1

   One process, one domain, one op in flight: every op runs to completion
   before the next starts. A run builds its world (timed as set-up,
   [setup_reps] times, median reported), runs untimed warm-up ops, then
   times ops, drawn from [--seed], back to back until [--seconds] have
   passed and at least
   [min_ops] ops are done, so that ten or more samples lie beyond the
   reported p90. Every op's output is checked outside op timing; a failed
   check or an exception counts the op as failed.

   With [--trace 0] the last stdout line is a JSON object carrying the
   end-to-end metrics; with [--trace 1] it carries the per-layer ledger
   instead. The ledger is measured from the outside only: the benchmark
   times its own calls into each layer's public functions and reads the
   existing [Obs.Metrics] counters. In a traced run tracing is switched
   on for alternate blocks of [trace_block] ops, so the untraced blocks
   of the same run give the tracing overhead.

   Each run also prints a determinism fingerprint: a digest of the
   simulated output of its first [min_ops] ops (and, traced, the counter
   totals at that point). Two runs of the same code and seed print the
   same fingerprint, whatever their speed. See README.md. *)

open Net
open Topology

(* Ops, set-up and layer spans are timed in process CPU time (user +
   system, from getrusage, microsecond resolution). Everything measured
   runs on one domain and does no I/O, so this is the op's wall time less
   any time the process spent descheduled. The run window itself is
   wall-clock time. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Unix.gettimeofday

(* Host-speed normalization. On a shared host the CPU's speed drifts by
   tens of percent over seconds to minutes, with other tenants' load, and
   a CPU-time reading cannot tell that from a slower program.
   So a fixed reference kernel runs, untimed, before every op and every
   set-up, and each timing is scaled by [reference_ms / r], where [r] is
   the median of the kernel's last [reference_window] times: every time is
   reported at the speed at which the kernel takes [reference_ms]. The
   kernel is benchmark code, uses only the standard library and allocates
   nothing, so the program under test cannot change how long it takes. *)
let reference_ms = 2.5
let reference_window = 9

(* Outside the OCaml heap, so they do not change how the program's heap
   is paced and sized. *)
let ints n =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

let reference_table = ints (1 lsl 18)
let reference_stream = ints (1 lsl 19)

(* Random read-modify-writes over a 2 MB table, then one sequential pass
   over 4 MB, the way bump allocation streams through the minor heap. *)
let reference_kernel () =
  let t = reference_table and x = ref 88172645 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land ((1 lsl 18) - 1) in
    let v = t.{j} in
    t.{j} <- (if v land 1 = 0 then v + (!x lsr 18) else v lxor !x)
  done;
  let s = reference_stream in
  for i = 1 to Bigarray.Array1.dim s - 1 do
    s.{i} <- s.{i - 1} + i
  done

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let recent_reference = Queue.create ()
let scale = ref 1.0

let calibrate () =
  let t0 = now () in
  reference_kernel ();
  Queue.push ((now () -. t0) *. 1000.0) recent_reference;
  if Queue.length recent_reference > reference_window then ignore (Queue.pop recent_reference);
  scale := reference_ms /. percentile (List.of_seq (Queue.to_seq recent_reference)) 0.5

(* Normalized CPU seconds spent in [f]. *)
let measure f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. !scale)

(* Ten samples beyond p90 need at least 100 ops; the fingerprint covers
   exactly these first ops so that it does not depend on run length. *)
let min_ops = 100
let setup_reps = 3
let trace_block = 2

(* A run that cannot reach [min_ops] in this long stops anyway, so the
   process always exits within its time limit. *)
let hard_cap_s = 150.0

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---- Outside-in layer ledger ---------------------------------------- *)

(* [tracing] is true only during the traced blocks of a traced run;
   everywhere else [span] is a plain call. *)
let tracing = ref false
let ledger : (string, float ref) Hashtbl.t = Hashtbl.create 16

let charge name dt =
  match Hashtbl.find_opt ledger name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace ledger name (ref dt)

let timed name f =
  let v, dt = measure f in
  charge name dt;
  v

let span name f = if !tracing then timed name f else f ()

let ledger_total name = match Hashtbl.find_opt ledger name with Some r -> !r | None -> 0.0

(* ---- Small helpers --------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let digest_chain acc s = Digest.to_hex (Digest.string (acc ^ s))

(* Loop freedom and valley-freeness of one loc-RIB route held by [asn]:
   the traversed part of the path (origination decoration skipped) never
   contains the holder, and holder :: traversed :: origin obeys the
   Gao-Rexford export rules. The origin's own local route has no path. *)
let route_sound graph asn (entry : Bgp.Route.entry) =
  let path = entry.Bgp.Route.ann.Bgp.Route.path in
  match Bgp.As_path.origin path with
  | None -> true
  | Some origin ->
      Asn.equal asn origin
      ||
      let traversed = Bgp.As_path.traversed ~origin path in
      (not (Bgp.As_path.contains asn traversed))
      && Splice.valley_free graph ((asn :: Bgp.As_path.to_list traversed) @ [ origin ])

(* ---- Workloads -------------------------------------------------------- *)

(* A workload is its set-up (run [setup_reps] times, the last world kept;
   set-up phases are charged to the ledger in every run), its untimed
   warm-up, the timed op, and the untimed per-op check that
   also returns the op's contribution to the fingerprint. [prepare] runs
   untimed before each traced op. [final] runs once after the timed loop.
   [sim_latencies] are the simulated seconds behind [sim_confirm_p50_s],
   collected by the checks of the first [min_ops] ops. *)
type workload = {
  warmup : unit -> unit;
  prepare : int -> unit;
  op : int -> unit;
  check : int -> bool * string;
  final : unit -> bool;
  sim_latencies : unit -> float list;
}

let setup ~setup_times build =
  let timed_build () =
    calibrate ();
    let v, dt = measure build in
    setup_times := dt :: !setup_times;
    v
  in
  for _ = 2 to setup_reps do
    ignore (timed_build ());
    Gc.compact ()
  done;
  timed_build ()

let path_line buf asn (r : Bgp.Route.entry option) =
  Buffer.add_string buf (Asn.to_string asn);
  (match r with
  | Some e ->
      List.iter
        (fun a -> Buffer.add_string buf (" " ^ Asn.to_string a))
        (Bgp.As_path.to_list e.Bgp.Route.ann.Bgp.Route.path)
  | None -> Buffer.add_string buf " -");
  Buffer.add_char buf '\n'

(* The worlds of [converge] and [churn] are fixed, so that runs with
   different seeds measure the same system; the seed draws the op
   sequence (poison targets, fault schedule). *)
let world_seed = 42

(* converge: one prefix over a 2,000-AS world; ops alternate poisoning a
   seeded-random transit AS and reverting to the baseline. The simulated
   latency is each op's convergence time: announcement to quiet. *)
let converge ~seed ~setup_times =
  let production = Workloads.Scenarios.production_prefix in
  let origin = Asn.of_int 64500 in
  let build () =
    let gen =
      timed "topology.generate" (fun () ->
          Topo_gen.generate ~params:(Topo_gen.sized 2000) ~seed:world_seed ())
    in
    let graph = gen.Topo_gen.graph in
    let rng = Prng.create ~seed:world_seed in
    As_graph.add_as graph ~tier:4 origin;
    let providers =
      Array.to_list (Prng.sample_without_replacement rng 3 (Array.of_list gen.Topo_gen.tier2))
    in
    List.iter
      (fun p -> As_graph.add_link graph ~a:origin ~b:p ~rel:Relationship.Provider)
      providers;
    let engine = Sim.Engine.create () in
    let net = timed "bgp.create" (fun () -> Bgp.Network.create ~engine ~graph ()) in
    let plan =
      Lifeguard.Remediate.plan ~sentinel:Workloads.Scenarios.sentinel_prefix ~origin ~production ()
    in
    Lifeguard.Remediate.announce_baseline net plan;
    Bgp.Network.run_until_quiet net;
    (gen, providers, engine, net, plan)
  in
  let gen, providers, engine, net, plan = setup ~setup_times build in
  let rng = Prng.create ~seed in
  let ases = Array.of_list (List.sort Asn.compare (As_graph.as_list (Bgp.Network.graph net))) in
  (* LIFEGUARD never poisons its own providers: that would cut it off. *)
  let candidates =
    Array.of_list
      (List.filter
         (fun a -> not (List.exists (Asn.equal a) providers))
         (List.sort Asn.compare (Topo_gen.transit_ases gen)))
  in
  let rib () = Array.map (fun a -> Bgp.Network.best_route net a production) ases in
  let baseline = rib () in
  let target = ref origin and started = ref 0.0 and latencies = ref [] in
  let op i =
    started := Sim.Engine.now engine;
    if i mod 2 = 0 then begin
      target := Prng.pick rng candidates;
      span "core.remediate" (fun () -> Lifeguard.Remediate.poison net plan ~target:!target)
    end
    else span "core.remediate" (fun () -> Lifeguard.Remediate.unpoison net plan);
    span "bgp.quiet" (fun () -> Bgp.Network.run_until_quiet net)
  in
  let path (e : Bgp.Route.entry) = e.Bgp.Route.ann.Bgp.Route.path in
  let same_path a b =
    match (a, b) with
    | Some x, Some y -> Bgp.As_path.equal (path x) (path y)
    | None, None -> true
    | _ -> false
  in
  let check i =
    let current = rib () in
    let ok =
      if i mod 2 = 0 then
        Option.is_none (Bgp.Network.best_route net !target production)
        && Array.for_all
             (function
               | None -> true
               | Some e -> not (Bgp.As_path.traverses ~origin ~target:!target (path e)))
             current
      else Array.for_all2 same_path baseline current
    in
    if i >= min_ops then (ok, "")
    else begin
      latencies := (Sim.Engine.now engine -. !started) :: !latencies;
      let buf = Buffer.create 65536 in
      Array.iteri (fun k r -> path_line buf ases.(k) r) current;
      (ok, Buffer.contents buf)
    end
  in
  {
    warmup = (fun () -> op 0; op 1);
    prepare = ignore;
    op;
    check;
    final = (fun () -> true);
    sim_latencies = (fun () -> !latencies);
  }

(* churn: full-table write-heavy churn; one op is a fixed 60 s simulated
   slice of the fault study's default fault profile over a 300-AS world
   announcing one prefix per AS. It has no repair latency of its own. *)
let slice = 60.0

let churn ~seed ~setup_times =
  let build () =
    let mux =
      timed "workloads.build" (fun () ->
          Workloads.Scenarios.bgpmux ~ases:300 ~infrastructure:Workloads.Scenarios.All
            ~seed:world_seed ())
    in
    let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
    let faults =
      Bgp.Faults.create ~config:Experiments.Fault_study.default_profile
        ~rng:(Prng.create ~seed:(seed + 4057))
        ~net ()
    in
    (* Besides the origin, the tier-1 clique never crashes: a tier-1 is many
       routers, and losing its whole loc-RIB at once is not a fault real
       networks show. Whether the first slices held such a crash would
       otherwise decide a run's figures. *)
    let tier1 =
      match mux.Workloads.Scenarios.bed.Workloads.Scenarios.gen with
      | Some gen -> gen.Topo_gen.tier1
      | None -> []
    in
    Bgp.Faults.start faults ~protect:(mux.Workloads.Scenarios.origin :: tier1) ~until:infinity ();
    mux
  in
  let mux = setup ~setup_times build in
  let net = mux.Workloads.Scenarios.bed.Workloads.Scenarios.net in
  let engine = Bgp.Network.engine net in
  let graph = Bgp.Network.graph net in
  let ases = List.sort Asn.compare (As_graph.as_list graph) in
  let op _ =
    let until = Sim.Engine.now engine +. slice in
    span "sim.slice" (fun () -> Sim.Engine.run ~until engine)
  in
  (* Every loc-RIB route of every AS, in a canonical order. *)
  let fold_rib f acc =
    List.fold_left
      (fun acc asn ->
        let sp = Bgp.Network.speaker net asn in
        List.fold_left
          (fun acc p -> match Bgp.Speaker.best sp p with Some e -> f acc asn p e | None -> acc)
          acc
          (List.sort Prefix.compare (Bgp.Speaker.prefixes sp)))
      acc ases
  in
  (* The collector's feed log grows with simulated time; left alone it
     would make later ops pay more GC work, so op times would depend on
     run length. Nothing here reads it. *)
  let collector = mux.Workloads.Scenarios.collector in
  let check i =
    Bgp.Network.Collector.clear collector;
    if i <> min_ops - 1 then (true, "")
    else begin
      let buf = Buffer.create (1 lsl 20) in
      fold_rib
        (fun () asn p e ->
          Buffer.add_string buf (Prefix.to_string p ^ " ");
          path_line buf asn (Some e))
        ();
      (true, Buffer.contents buf)
    end
  in
  let final () =
    Bgp.Network.run_until_quiet net;
    fold_rib (fun ok asn _ e -> ok && route_sound graph asn e) true
  in
  {
    warmup =
      (fun () ->
        for i = 0 to 4 do
          op i
        done);
    prepare = ignore;
    op;
    check;
    final;
    sim_latencies = (fun () -> []);
  }

(* fleet: independent durable fleet-service worlds, one per seed
   (seed + i), each a 12 h planning deployment with an in-memory journal.
   The simulated latency is detection to sentinel-confirmed reroute. *)
let fleet_config =
  { Fleet.Service.default_config with Fleet.Service.duration = 43200.0; planning = true }

(* The world-building calls [Fleet.Service.run_durable] makes before its
   control loop starts, repeated from outside to split the op's time. *)
let fleet_world_build s =
  let cfg = fleet_config in
  let mux =
    Workloads.Scenarios.bgpmux ~ases:cfg.Fleet.Service.ases
      ~infrastructure:Workloads.Scenarios.No_infrastructure ~seed:s ()
  in
  let bed = mux.Workloads.Scenarios.bed in
  let origin = mux.Workloads.Scenarios.origin in
  let vps = bed.Workloads.Scenarios.vantage_points in
  let pool =
    match bed.Workloads.Scenarios.gen with
    | Some gen ->
        List.filter
          (fun a -> (not (List.exists (Asn.equal a) vps)) && not (Asn.equal a origin))
          gen.Topo_gen.stub_list
    | None -> []
  in
  let targets =
    Array.to_list
      (Prng.sample_without_replacement
         (Prng.create ~seed:(s + 1013))
         (min cfg.Fleet.Service.target_count (List.length pool))
         (Array.of_list pool))
  in
  Dataplane.Forward.announce_infrastructure_for bed.Workloads.Scenarios.net
    ((origin :: vps) @ targets);
  Bgp.Network.run_until_quiet ~timeout:36000.0 bed.Workloads.Scenarios.net

let fleet ~seed ~setup_times =
  let world s =
    let journal = ref 0 in
    match
      Fleet.Service.run_durable ~config:fleet_config ~seed:s
        ~journal_sink:(fun _ -> incr journal)
        ()
    with
    | Fleet.Service.Finished { report; recovery } -> (report, recovery, !journal)
    | Fleet.Service.Interrupted _ -> failwith "fleet world interrupted without a crash spec"
  in
  (* Set-up is one untimed warm-up world, on a seed no op uses. *)
  ignore (setup ~setup_times (fun () -> world (seed - 1)));
  let last = ref None and latencies = ref [] in
  let check i =
    match !last with
    | None -> (false, "")
    | Some (r, recovery, journal) ->
        last := None;
        let ok =
          r.Fleet.Service.detected
          = r.Fleet.Service.repaired + r.Fleet.Service.stood_down + r.Fleet.Service.gave_up
            + r.Fleet.Service.unfinished
          && recovery.Fleet.Service.rc_reconcile.Recover.Reconcile.clean
          && journal = List.length recovery.Fleet.Service.rc_journal
        in
        if i >= min_ops then (ok, "")
        else begin
          latencies := List.rev_append r.Fleet.Service.time_to_confirm !latencies;
          (ok, String.concat "\n" (Fleet.Service.render_report r))
        end
  in
  {
    warmup = ignore;
    prepare = (fun i -> timed "fleet.world_build" (fun () -> fleet_world_build (seed + i)));
    op = (fun i -> last := Some (span "fleet.service" (fun () -> world (seed + i))));
    check;
    final = (fun () -> true);
    sim_latencies = (fun () -> !latencies);
  }

(* ---- Counters read in traced runs ------------------------------------ *)

let counter_names =
  [
    "sim.events";
    "bgp.delivered";
    "bgp.decisions";
    "bgp.mrai_rounds";
    "bgp.updates.withdraw";
    "meas.probes";
    "fleet.monitor.pairs";
    "fleet.outages.detected";
    "fleet.poisons";
    "fleet.budget.denied";
    "plan.hits";
    "plan.misses";
    "recover.appends";
  ]

(* High-watermarks: reported as run maxima, not per-op deltas. *)
let gauge_names = [ "sim.queue_depth"; "bgp.loc_rib" ]

let read_counters () =
  let snap = Obs.Metrics.snapshot () in
  let gauges = Hashtbl.of_seq (List.to_seq snap.Obs.Metrics.gauges) in
  List.map (fun n -> (n, Obs.Metrics.counter_value snap n)) counter_names
  @ List.map (fun n -> (n, Option.value ~default:0 (Hashtbl.find_opt gauges n))) gauge_names

(* ---- Main loop -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let json_of_metrics ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let int_arg flag n = try int_of_string n with Failure _ -> die "bad %s %s" flag n in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := float_of_int (int_arg "--seconds" n);
        go rest
    | "--trace" :: n :: rest ->
        trace := (match n with "0" -> false | "1" -> true | _ -> die "bad --trace %s" n);
        go rest
    | arg :: _ -> die "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  (!workload, !seed, !seconds, !trace)

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let end_to_end ~op_ms ~setup_times ~rss =
  let ops = float_of_int (List.length op_ms) in
  [
    { name = "ops_per_s"; value = ratio ops (sum op_ms /. 1000.0); unit_ = "1/s" };
    { name = "op_p50_ms"; value = percentile op_ms 0.5; unit_ = "ms" };
    { name = "op_p90_ms"; value = percentile op_ms 0.9; unit_ = "ms" };
    { name = "setup_s"; value = percentile setup_times 0.5; unit_ = "s" };
    { name = "peak_rss_mb"; value = rss; unit_ = "MB" };
  ]

let per_layer ~traced_ms ~untraced_ms ~ops ~check_s ~minor ~major ~sim_confirm =
  let n = float_of_int (List.length traced_ms) in
  let traced_total = sum traced_ms in
  let counters = Hashtbl.of_seq (List.to_seq (read_counters ())) in
  let c name = float_of_int (Hashtbl.find counters name) in
  let per_op v = ratio v n in
  let setup_s name = ledger_total name /. float_of_int setup_reps in
  let layer_ms name = per_op (ledger_total name *. 1000.0) in
  let ms name value = { name; value; unit_ = "ms" } in
  let count name = { name; value = per_op (c name); unit_ = "count" } in
  let gauge name = { name; value = c name; unit_ = "count" } in
  let rate name value = { name; value; unit_ = "ratio" } in
  let per_delivery unit_ name v = { name; value = ratio v (c "bgp.delivered"); unit_ } in
  (* Self-times of the layer spans inside ops; the fleet loop is the
     service call minus its separately timed world build. *)
  let op_layers = [ "core.remediate"; "bgp.quiet"; "sim.slice"; "fleet.service" ] in
  let covered = sum (List.map (fun l -> ledger_total l *. 1000.0) op_layers) in
  [
    { name = "topology.generate_s"; value = setup_s "topology.generate"; unit_ = "s" };
    { name = "bgp.create_s"; value = setup_s "bgp.create"; unit_ = "s" };
    { name = "workloads.build_s"; value = setup_s "workloads.build"; unit_ = "s" };
    ms "core.remediate_ms" (layer_ms "core.remediate");
    ms "bgp.quiet_ms" (layer_ms "bgp.quiet");
    ms "sim.slice_ms" (layer_ms "sim.slice");
    ms "fleet.world_build_ms" (layer_ms "fleet.world_build");
    ms "fleet.loop_ms" (layer_ms "fleet.service" -. layer_ms "fleet.world_build");
    ms "bench.check_ms" (ratio (check_s *. 1000.0) (float_of_int ops));
    rate "ledger.coverage" (ratio covered traced_total);
    { name = "sim_confirm_p50_s"; value = sim_confirm; unit_ = "s" };
    count "sim.events";
    gauge "sim.queue_depth";
    count "bgp.delivered";
    count "bgp.decisions";
    count "bgp.mrai_rounds";
    count "bgp.updates.withdraw";
    gauge "bgp.loc_rib";
    count "meas.probes";
    count "fleet.monitor.pairs";
    count "fleet.outages.detected";
    count "fleet.poisons";
    count "fleet.budget.denied";
    count "plan.hits";
    count "plan.misses";
    count "recover.appends";
    { name = "gc.minor_words"; value = per_op minor; unit_ = "count" };
    { name = "gc.major_collections"; value = per_op (float_of_int major); unit_ = "count" };
    {
      name = "sim.ns_per_event";
      value = ratio (traced_total *. 1e6) (c "sim.events");
      unit_ = "ns";
    };
    per_delivery "ns" "bgp.ns_per_delivery" (traced_total *. 1e6);
    per_delivery "ratio" "bgp.decisions_per_delivery" (c "bgp.decisions");
    per_delivery "words" "gc.minor_words_per_delivery" minor;
    rate "fleet.probes_per_detection" (ratio (c "meas.probes") (c "fleet.outages.detected"));
    rate "plan.hit_rate" (ratio (c "plan.hits") (c "plan.hits" +. c "plan.misses"));
    rate "trace_overhead"
      (ratio (per_op traced_total)
         (ratio (sum untraced_ms) (float_of_int (List.length untraced_ms))));
  ]

let () =
  let workload, seed, seconds, traced = parse_args () in
  let setup_times = ref [] in
  let w =
    match workload with
    | "converge" -> converge ~seed ~setup_times
    | "churn" -> churn ~seed ~setup_times
    | "fleet" -> fleet ~seed ~setup_times
    | other -> die "unknown workload %S (converge, churn, fleet)" other
  in
  w.warmup ();
  Gc.full_major ();
  let op_ms = ref [] and traced_ms = ref [] and untraced_ms = ref [] in
  let ops = ref 0 and failed = ref 0 and check_s = ref 0.0 in
  let fingerprint = ref "" and fp_counters = ref [] in
  let minor = ref 0.0 and major = ref 0 in
  (* The major heap keeps growing with run length under churn (GC pacing
     on a slowly growing live set), so peak RSS is read after a fixed
     amount of work: set-up, warm-up and the first [min_ops] ops. *)
  let rss = ref 0.0 in
  let t_start = wall () in
  while
    let elapsed = wall () -. t_start in
    (elapsed < seconds || !ops < min_ops) && elapsed < hard_cap_s
  do
    let i = !ops in
    let on = traced && i / trace_block mod 2 = 0 in
    calibrate ();
    if on then w.prepare i;
    let gc0 = Gc.quick_stat () in
    if on then Obs.Metrics.enable ();
    tracing := on;
    let raised, dt = measure (fun () -> match w.op i with () -> None | exception e -> Some e) in
    let dt = dt *. 1000.0 in
    tracing := false;
    Obs.Metrics.disable ();
    if on then begin
      let gc1 = Gc.quick_stat () in
      minor := !minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      major := !major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
      traced_ms := dt :: !traced_ms
    end
    else untraced_ms := dt :: !untraced_ms;
    op_ms := dt :: !op_ms;
    let (ok, fp), dc =
      measure (fun () ->
          match raised with
          | Some e ->
              prerr_endline (Printf.sprintf "perfbench: op %d raised %s" i (Printexc.to_string e));
              (false, "")
          | None -> (
              try w.check i
              with e ->
                prerr_endline
                  (Printf.sprintf "perfbench: check %d raised %s" i (Printexc.to_string e));
                (false, "")))
    in
    check_s := !check_s +. dc;
    if i < min_ops then fingerprint := digest_chain !fingerprint fp;
    if i = min_ops - 1 then begin
      if traced then fp_counters := read_counters ();
      rss := peak_rss_mb ()
    end;
    if not ok then incr failed;
    incr ops
  done;
  let final_ok =
    try w.final ()
    with e ->
      prerr_endline ("perfbench: final check raised " ^ Printexc.to_string e);
      false
  in
  let sim_confirm = percentile (w.sim_latencies ()) 0.5 in
  let metrics =
    if traced then
      per_layer ~traced_ms:!traced_ms ~untraced_ms:!untraced_ms ~ops:!ops ~check_s:!check_s
        ~minor:!minor ~major:!major ~sim_confirm
    else
      end_to_end ~op_ms:!op_ms ~setup_times:!setup_times
        ~rss:(if !rss > 0.0 then !rss else peak_rss_mb ())
  in
  Printf.printf "workload %s seed %d seconds %g trace %b\n" workload seed seconds traced;
  Printf.printf "ops %d ops_failed %d final_check %s\n" !ops !failed
    (if final_ok then "ok" else "FAILED");
  Printf.printf "fingerprint %s ops=%d digest=%s\n" workload (min !ops min_ops) !fingerprint;
  Printf.printf "fingerprint.sim_confirm_p50_s %h\n" sim_confirm;
  List.iter (fun (n, v) -> Printf.printf "fingerprint.counter %s %d\n" n v) !fp_counters;
  List.iter (fun m -> Printf.printf "%s %.6g %s\n" m.name m.value m.unit_) metrics;
  print_endline
    (json_of_metrics ~correct:(!failed = 0 && final_ok) ~attempted:!ops ~failed:!failed metrics)

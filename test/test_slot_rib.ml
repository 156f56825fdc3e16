(* The slot-indexed speaker RIB against a from-scratch reference.

   Best-route selection is incremental (one comparison per changed
   candidate, a rescan only when the best's own neighbor withdraws or gets
   worse) and exports are diffed against a slot-indexed adj-RIB-out. Both
   are checked here against what a fresh computation would hold: after
   every update (and, in network worlds, after every engine step, so
   after every delivery, MRAI flush and damping wake-up) each speaker's
   loc-RIB best must equal [Decision.best] over the prefix's current
   eligible candidates, and each neighbor's adj-RIB-out entry must equal
   the desired export. The decision layer's work ratios on the Fig. 6
   world are pinned at the end. *)

open Net
open Topology
open Helpers

let same_entry a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Bgp.Route.entry), Some (y : Bgp.Route.entry) ->
      Bgp.Route.announcement_equal x.ann y.ann && Asn.equal x.neighbor y.neighbor
  | Some _, None | None, Some _ -> false

let entry_str = function
  | None -> "none"
  | Some e -> Format.asprintf "%a" Bgp.Route.pp_entry e

(* [local] is the per-neighbor path function the speaker currently
   originates [prefix] with, if it does; [is_down n] whether the session
   to [n] is down. *)
let check_speaker sp ~prefix ~local ~is_down =
  let self = Bgp.Speaker.asn sp and config = Bgp.Speaker.config sp in
  let best = Bgp.Speaker.best sp prefix in
  let reference =
    match local with
    | Some _ ->
        Some
          (Bgp.Route.local_entry ~prefix ~self ~path:(Bgp.As_path.plain ~origin:self) ~now:0.0)
    | None ->
        let damped = Bgp.Speaker.suppressed_candidates sp prefix in
        Bgp.Decision.best
          (List.filter
             (fun (e : Bgp.Route.entry) -> not (List.exists (Asn.equal e.neighbor) damped))
             (Bgp.Speaker.candidates sp prefix))
  in
  if not (same_entry best reference) then
    Alcotest.failf "AS%d %s: best %s, reference %s" (Asn.to_int self) (Prefix.to_string prefix)
      (entry_str best) (entry_str reference);
  let desired =
    List.filter_map
      (fun (n, rel) ->
        if is_down n then None
        else begin
          match (local, best) with
          | Some per_neighbor, _ ->
              Option.map (fun path -> (n, Bgp.Route.announcement ~prefix ~path ())) (per_neighbor n)
          | None, Some entry
            when Bgp.Policy.export_allowed config ~self ~entry ~to_neighbor:n ~to_rel:rel ->
              Some (n, Bgp.Policy.export_ann config ~self ~entry)
          | None, _ -> None
        end)
      (Bgp.Speaker.neighbors sp)
  in
  let sent = Bgp.Speaker.advertised sp prefix in
  let same =
    List.length sent = List.length desired
    && List.for_all2
         (fun (n1, a1) (n2, a2) -> Asn.equal n1 n2 && Bgp.Route.announcement_equal a1 a2)
         sent desired
  in
  if not same then
    Alcotest.failf "AS%d %s: adj-RIB-out has %d entries, desired exports %d (or they differ)"
      (Asn.to_int self) (Prefix.to_string prefix) (List.length sent) (List.length desired)

let damped_config = { Bgp.Policy.default with damping = Some Bgp.Policy.default_damping }

(* ---- One speaker, random updates: MEDs, loops, damping ---- *)

(* Paths from a neighbor sometimes start with a shared AS (300/301)
   instead of the neighbor itself, so candidates from different neighbors
   share a first hop and MEDs get compared — the case where
   [compare_entries] is not transitive and the scan order shows. [self]
   in the pool makes loop rejections (implicit withdraws) happen. *)
let random_path rng ~self ~neighbor =
  let first = Prng.pick rng [| neighbor; neighbor; asn 300; asn 301 |] in
  let pool = [| asn 300; asn 301; asn 302; asn 303; self |] in
  Bgp.As_path.of_list (first :: List.init (Prng.int rng 4) (fun _ -> Prng.pick rng pool))

let speaker_run seed =
  let rng = Prng.create ~seed in
  let self = asn 100 in
  let neighbors =
    List.init 6 (fun i ->
        ( asn (200 + i),
          Prng.pick rng [| Relationship.Customer; Relationship.Peer; Relationship.Provider |] ))
  in
  (* Either feature switches every later decision to the full scan, so
     each is on in only half of the runs: the rest test the incremental
     path. *)
  let config = if Prng.bool rng then damped_config else Bgp.Policy.default in
  let meds = Prng.bool rng in
  let sp = Bgp.Speaker.create ~asn:self ~config ~neighbors () in
  let prefixes = [ production; sentinel ] in
  let locals = Hashtbl.create 2 and down = Hashtbl.create 6 in
  let now = ref 0.0 in
  for _ = 1 to 150 do
    now := !now +. Prng.range_float rng ~lo:0.0 ~hi:300.0;
    let now = !now in
    let prefix = Prng.pick_list rng prefixes in
    let n, _ = Prng.pick_list rng neighbors in
    let slot = Bgp.Speaker.slot_of sp n in
    (match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let med = if meds && Prng.int rng 3 = 0 then Some (Prng.int rng 3) else None in
        let ann =
          Bgp.Route.announcement ?med ~prefix ~path:(random_path rng ~self ~neighbor:n) ()
        in
        ignore (Bgp.Speaker.receive sp ~now ~slot (Bgp.Speaker.Announce ann))
    | 5 -> ignore (Bgp.Speaker.receive sp ~now ~slot (Bgp.Speaker.Withdraw prefix))
    | 6 ->
        if Hashtbl.mem down n then begin
          Hashtbl.remove down n;
          ignore (Bgp.Speaker.session_up sp ~now ~neighbor:n)
        end
        else begin
          Hashtbl.replace down n ();
          ignore (Bgp.Speaker.session_down sp ~now ~neighbor:n)
        end
    | 7 ->
        let paths =
          [| Some (Bgp.As_path.plain ~origin:self); Some (Bgp.As_path.prepended ~origin:self ~copies:2); None |]
        in
        let k = Prng.int rng 3 in
        let per_neighbor m = paths.((Asn.to_int m + k) mod 3) in
        Hashtbl.replace locals prefix per_neighbor;
        ignore (Bgp.Speaker.originate sp ~now ~prefix ~per_neighbor)
    | 8 ->
        Hashtbl.remove locals prefix;
        ignore (Bgp.Speaker.stop_originating sp ~now ~prefix)
    | _ -> ignore (Bgp.Speaker.reevaluate sp ~now prefix));
    List.iter
      (fun prefix ->
        check_speaker sp ~prefix ~local:(Hashtbl.find_opt locals prefix)
          ~is_down:(Hashtbl.mem down))
      prefixes
  done;
  true

let prop_speaker_matches_reference =
  QCheck.Test.make ~name:"speaker RIB = reference under random updates, MEDs and damping"
    ~count:100 QCheck.(int_range 0 100_000) speaker_run

(* ---- Random Topo_gen worlds under random control-plane events ---- *)

(* What the network was told, mirrored independently of the speakers:
   per prefix its origin, the path function it was last announced with
   and whether the origin currently originates it; and the down links. *)
type mirror = {
  origin_of : Asn.t Prefix.Map.t;
  intent : (Prefix.t, Asn.t -> Bgp.As_path.t option) Hashtbl.t;
  active : (Prefix.t, unit) Hashtbl.t;
  down_links : (int * int, unit) Hashtbl.t;
}

let link_key a b =
  let a = Asn.to_int a and b = Asn.to_int b in
  if a < b then (a, b) else (b, a)

let check_world net m =
  let graph = Bgp.Network.graph net in
  List.iter
    (fun a ->
      let sp = Bgp.Network.speaker net a in
      Prefix.Map.iter
        (fun prefix origin ->
          let local =
            if Asn.equal origin a && Hashtbl.mem m.active prefix then Hashtbl.find_opt m.intent prefix
            else None
          in
          check_speaker sp ~prefix ~local ~is_down:(fun n -> Hashtbl.mem m.down_links (link_key a n)))
        m.origin_of)
    (As_graph.as_list graph)

(* Step the engine to quiescence, checking every speaker after each
   event it runs. *)
let drain engine net m =
  check_world net m;
  let steps = ref 0 in
  while !steps < 50_000 && Sim.Engine.step engine do
    incr steps;
    check_world net m
  done

let world_run seed =
  let rng = Prng.create ~seed in
  let gen = Topo_gen.generate ~params:(Topo_gen.sized 30) ~seed () in
  let graph = gen.Topo_gen.graph in
  let config_of =
    if Prng.bool rng then fun _ -> damped_config else fun _ -> Bgp.Policy.default
  in
  let w = world_of_graph ~config_of graph in
  let net = w.net and engine = w.engine in
  let ases = Array.of_list (As_graph.as_list graph) in
  let stubs = Array.of_list gen.Topo_gen.stub_list in
  let transits = Array.of_list (Topo_gen.transit_ases gen) in
  let links =
    Array.of_list
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun (b, _) -> if Asn.compare a b < 0 then Some (a, b) else None)
             (As_graph.neighbors graph a))
         (As_graph.as_list graph))
  in
  let m =
    {
      origin_of =
        Prefix.Map.(empty |> add production (Prng.pick rng stubs) |> add sentinel (Prng.pick rng stubs));
      intent = Hashtbl.create 2;
      active = Hashtbl.create 2;
      down_links = Hashtbl.create 8;
    }
  in
  let crashed = Hashtbl.create 4 in
  let announce prefix per_neighbor =
    let origin = Prefix.Map.find prefix m.origin_of in
    Hashtbl.replace m.intent prefix per_neighbor;
    Hashtbl.replace m.active prefix ();
    Bgp.Network.announce net ~origin ~prefix ~per_neighbor ()
  in
  let incident a = List.map (fun (b, _) -> link_key a b) (As_graph.neighbors graph a) in
  for _ = 1 to 25 do
    let prefix = Prng.pick rng [| production; sentinel |] in
    let origin = Prefix.Map.find prefix m.origin_of in
    (match Prng.int rng 9 with
    | 0 -> announce prefix (fun _ -> Some (Bgp.As_path.plain ~origin))
    | 1 ->
        let poison = Bgp.As_path.poisoned ~origin ~poison:(Prng.pick rng transits) in
        announce prefix (fun _ -> Some poison)
    | 2 ->
        let path = Bgp.As_path.prepended ~origin ~copies:(2 + Prng.int rng 2) in
        announce prefix (fun _ -> Some path)
    | 3 ->
        Hashtbl.remove m.intent prefix;
        Hashtbl.remove m.active prefix;
        Bgp.Network.withdraw net ~origin ~prefix
    | 4 ->
        let a, b = Prng.pick rng links in
        Hashtbl.replace m.down_links (link_key a b) ();
        Bgp.Network.fail_link net ~a ~b
    | 5 ->
        let a, b = Prng.pick rng links in
        Hashtbl.remove m.down_links (link_key a b);
        Bgp.Network.restore_link net ~a ~b
    | 6 ->
        let a = Prng.pick rng ases in
        Hashtbl.replace crashed a ();
        List.iter (fun k -> Hashtbl.replace m.down_links k ()) (incident a);
        Prefix.Map.iter
          (fun p o -> if Asn.equal o a then Hashtbl.remove m.active p)
          m.origin_of;
        Bgp.Network.crash_node net a
    | 7 ->
        let a = Prng.pick rng ases in
        if Hashtbl.mem crashed a then begin
          Hashtbl.remove crashed a;
          List.iter (Hashtbl.remove m.down_links) (incident a);
          Prefix.Map.iter
            (fun p o ->
              if Asn.equal o a && Hashtbl.mem m.intent p then Hashtbl.replace m.active p ())
            m.origin_of;
          Bgp.Network.restart_node net a
        end
    | _ ->
        (* A MED-carrying candidate injected straight into one speaker
           (the wire strips MEDs on export); its own updates are not
           sent on, which the per-speaker checks do not need. *)
        let a = Prng.pick rng ases in
        let sp = Bgp.Network.speaker net a in
        let n, _ = Prng.pick_list rng (Bgp.Speaker.neighbors sp) in
        let path = Bgp.As_path.of_list [ n; Prng.pick rng transits; origin ] in
        let ann = Bgp.Route.announcement ~med:(Prng.int rng 5) ~prefix ~path () in
        ignore
          (Bgp.Speaker.receive sp ~now:(Sim.Engine.now engine) ~slot:(Bgp.Speaker.slot_of sp n)
             (Bgp.Speaker.Announce ann)));
    drain engine net m
  done;
  true

let prop_worlds_match_reference =
  QCheck.Test.make ~name:"every speaker = reference after every step of random worlds"
    ~count:12 QCheck.(int_range 0 100_000) world_run

(* ---- Pinned decision-layer work on the Fig. 6 world ---- *)

(* One poisoning on the Fig. 6 world (318 ASes, the bench's seed): the
   fraction of decisions that fall back to a full candidate scan, and
   the minor-heap words allocated per delivered update. Counted work,
   not wall-clock time, so the pins hold on a noisy host. Each bound is
   twice the value measured when it was set. *)
let max_scans_per_decision = 2.0 *. 0.018
let max_words_per_delivery = 2.0 *. 153.0

let test_fig6_work_pinned () =
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let mux =
    Workloads.Scenarios.bgpmux ~ases:318 ~infrastructure:Workloads.Scenarios.No_infrastructure
      ~seed:42 ()
  in
  let bed = mux.Workloads.Scenarios.bed in
  let net = bed.Workloads.Scenarios.net in
  let origin = mux.Workloads.Scenarios.origin in
  Lifeguard.Remediate.announce_baseline net mux.Workloads.Scenarios.plan;
  Bgp.Network.run_until_quiet net;
  let target = List.hd (Workloads.Scenarios.harvest_on_path_ases mux) in
  Workloads.Scenarios.settle bed ~seconds:120.0;
  let poisoned = Bgp.As_path.poisoned ~origin ~poison:target in
  Obs.Metrics.enable ();
  let w0 = Gc.minor_words () in
  Bgp.Network.announce net ~origin ~prefix:production ~per_neighbor:(fun _ -> Some poisoned) ();
  Bgp.Network.run_until_quiet net;
  let words = Gc.minor_words () -. w0 in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let count name = float_of_int (Obs.Metrics.counter_value snap name) in
  let decisions = count "bgp.decisions" and delivered = count "bgp.delivered" in
  Alcotest.(check bool) "the poison propagated" true (delivered > 0.0);
  let scans_per_decision = count "bgp.decision.scans" /. decisions in
  let words_per_delivery = words /. delivered in
  Alcotest.(check bool)
    (Printf.sprintf "scans per decision %.4f <= %.4f" scans_per_decision max_scans_per_decision)
    true
    (scans_per_decision <= max_scans_per_decision);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per delivery %.1f <= %.1f" words_per_delivery
       max_words_per_delivery)
    true
    (words_per_delivery <= max_words_per_delivery)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_speaker_matches_reference;
    QCheck_alcotest.to_alcotest prop_worlds_match_reference;
    Alcotest.test_case "fig6 decision work pinned" `Quick test_fig6_work_pinned;
  ]

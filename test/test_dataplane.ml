(* Forwarding, failure injection and the probe vocabulary — including the
   paper's misleading-traceroute scenario. *)

open Net
open Helpers

let ready_world () =
  let w = fig2_world () in
  announce_all_infrastructure w;
  Bgp.Network.announce w.net ~origin:o ~prefix:production ();
  converge w;
  w

let infra = Dataplane.Forward.infrastructure_prefix
let addr w x = Dataplane.Forward.probe_address w.net x

let test_basic_delivery () =
  let w = ready_world () in
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) () in
  Alcotest.(check bool) "delivered" true (walk.Dataplane.Forward.outcome = Dataplane.Forward.Delivered);
  Alcotest.(check (list int)) "AS-level path" [ 60; 30; 20; 10 ]
    (List.map Asn.to_int (Dataplane.Forward.as_path_of_walk walk));
  Alcotest.(check bool) "delivers convenience" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_no_route () =
  let w = fig2_world () in
  (* Nothing announced: no FIB entries anywhere. *)
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) () in
  match walk.Dataplane.Forward.outcome with
  | Dataplane.Forward.No_route at -> Alcotest.(check int) "stops at source" 60 (Asn.to_int at)
  | _ -> Alcotest.fail "expected No_route"

let test_node_failure_blocks () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures (Dataplane.Failure.spec (Dataplane.Failure.Node a));
  let walk = Dataplane.Forward.walk w.net w.failures ~src:e ~dst:(addr w o) () in
  (match walk.Dataplane.Forward.outcome with
  | Dataplane.Forward.Dropped { at; _ } -> Alcotest.(check int) "dropped at A" 30 (Asn.to_int at)
  | _ -> Alcotest.fail "expected Dropped");
  Dataplane.Failure.clear w.failures;
  Alcotest.(check bool) "clear heals" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_directional_link_failure () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec (Dataplane.Failure.Link_dir (e, a)));
  Alcotest.(check bool) "e->a traversal dies" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Alcotest.(check bool) "a->e traversal fine" true
    (Dataplane.Forward.delivers w.net w.failures ~src:o ~dst:(addr w e))

let test_toward_scoping () =
  let w = ready_world () in
  (* A drops only packets toward O's infrastructure space. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "toward O dies" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Alcotest.(check bool) "toward F unaffected (also through A)" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w f))

let test_source_blocked_by_own_failure () =
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  (* A itself cannot reach O: its packets die on departure. *)
  Alcotest.(check bool) "A cannot reach O" false
    (Dataplane.Forward.delivers w.net w.failures ~src:a ~dst:(addr w o))

let test_ping_requires_both_directions () =
  let w = ready_world () in
  (* Reverse-only failure: traffic toward O's infra dies inside A. Pings
     from O to E fail (reply crosses A), pings from O to D succeed (D's
     path back avoids A). *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "ping O->E fails on the reply" false
    (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check bool) "ping O->D fine" true (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w d));
  (* Forward direction from O still works: a spoofed ping sourced at O
     with D's address draws the reply to D instead. *)
  Alcotest.(check bool) "spoofed ping O->E (reply to D)" true
    (Dataplane.Probe.spoofed_ping w.probe ~sender:o ~spoof_src:(addr w d) ~dst:(addr w e))

let test_misleading_traceroute () =
  (* The Fig. 4 situation, transplanted onto Fig. 2's topology: O pings E;
     the reverse path E->A->...->O fails inside A. O's own traceroute
     toward E shows hops up to... every hop whose reply crosses A is
     silent, so the trace *looks* like a forward problem near the horizon
     even though the forward path is fine. *)
  let w = ready_world () in
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Node a));
  let trace = Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e) in
  Alcotest.(check bool) "forward walk completed" true
    (trace.Dataplane.Probe.outcome = Dataplane.Forward.Delivered);
  Alcotest.(check bool) "but destination seems unreachable" false trace.Dataplane.Probe.reached;
  (* Hops before A respond; A and E (reply via A) do not. *)
  let responded_ases =
    List.filter_map
      (fun th ->
        if th.Dataplane.Probe.responded then
          Some (Asn.to_int th.Dataplane.Probe.hop.Dataplane.Forward.asn)
        else None)
      trace.Dataplane.Probe.hops
  in
  Alcotest.(check (list int)) "only O and B respond" [ 10; 20 ] responded_ases;
  Alcotest.(check bool) "last responsive AS is B" true
    (Dataplane.Probe.last_responsive_as trace = Some b);
  Alcotest.(check (list int)) "visible path" [ 10; 20 ] (List.map Asn.to_int (Dataplane.Probe.visible_path trace))

let test_dropped_hop_does_not_respond () =
  let w = ready_world () in
  (* Hard forward failure at A for traffic toward E: the trace stops at A
     and A itself cannot have answered. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra e) (Dataplane.Failure.Node a));
  let trace = Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e) in
  (match trace.Dataplane.Probe.outcome with
  | Dataplane.Forward.Dropped { at; _ } -> Alcotest.(check int) "dropped at A" 30 (Asn.to_int at)
  | _ -> Alcotest.fail "expected drop");
  let last = List.rev trace.Dataplane.Probe.hops |> List.hd in
  Alcotest.(check bool) "dying hop is silent" false last.Dataplane.Probe.responded

let test_ping_from_sentinel_space () =
  let w = ready_world () in
  Bgp.Network.announce w.net ~origin:o ~prefix:sentinel ();
  converge w;
  let sentinel_src = Prefix.nth_address sentinel 1 in
  Alcotest.(check bool) "replies can route to the sentinel" true
    (Dataplane.Probe.ping_from w.probe ~src:o ~src_ip:sentinel_src ~dst:(addr w e))

let test_reverse_traceroute () =
  let w = ready_world () in
  (* Measure E's path back to O, helped by vantage point D. *)
  (match
     Dataplane.Probe.reverse_traceroute w.probe ~vantage_points:[ d ] ~from_:e
       ~to_ip:(addr w o)
   with
  | Some trace ->
      Alcotest.(check bool) "reached" true trace.Dataplane.Probe.reached;
      Alcotest.(check (list int)) "reverse path" [ 60; 30; 20; 10 ]
        (List.map
           (fun th -> Asn.to_int th.Dataplane.Probe.hop.Dataplane.Forward.asn)
           trace.Dataplane.Probe.hops)
  | None -> Alcotest.fail "reverse traceroute should be feasible");
  (* Without any vantage point able to reach E, it is infeasible. *)
  Dataplane.Failure.add w.failures
    (Dataplane.Failure.spec ~toward:(infra e) (Dataplane.Failure.Node a));
  Alcotest.(check bool) "infeasible when no VP reaches the target" true
    (Dataplane.Probe.reverse_traceroute w.probe ~vantage_points:[ o; f ] ~from_:e
       ~to_ip:(addr w o)
    = None)

let test_probe_accounting () =
  let w = ready_world () in
  Dataplane.Probe.reset_probe_count w.probe;
  ignore (Dataplane.Probe.ping w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check int) "ping costs 1" 1 w.probe.Dataplane.Probe.probes_sent;
  ignore (Dataplane.Probe.traceroute w.probe ~src:o ~dst:(addr w e));
  Alcotest.(check bool) "traceroute costs per hop" true (w.probe.Dataplane.Probe.probes_sent > 2)

let test_failure_spec_equality_and_heal () =
  let w = ready_world () in
  let spec = Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Link (a, e)) in
  Dataplane.Failure.inject w.net w.failures spec;
  Alcotest.(check bool) "active" false
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  (* Link scope is undirected for identity: removing with flipped
     endpoints works. *)
  Dataplane.Failure.heal w.net w.failures
    (Dataplane.Failure.spec ~toward:(infra o) (Dataplane.Failure.Link (e, a)));
  Alcotest.(check bool) "healed" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o))

let test_control_and_data_failure () =
  let w = ready_world () in
  let spec =
    Dataplane.Failure.spec ~mode:Dataplane.Failure.Control_and_data
      (Dataplane.Failure.Link (e, a))
  in
  Dataplane.Failure.inject w.net w.failures spec;
  converge w;
  (* BGP saw the failure: E reroutes via D and the data plane follows. *)
  check_path "E reroutes" [ 50; 40; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production));
  Alcotest.(check bool) "data plane delivers on the new path" true
    (Dataplane.Forward.delivers w.net w.failures ~src:e ~dst:(addr w o));
  Dataplane.Failure.heal w.net w.failures spec;
  converge w;
  check_path "E back on the short path" [ 30; 20; 10 ]
    (path_of_best (Bgp.Network.best_route w.net e production))

(* ------------------------------------------------------------------ *)
(* The ping-verdict memo against a fresh recomputation. *)

module Probe = Dataplane.Probe

(* What {!Probe.ping_from} computes, recomputed from scratch. *)
let fresh_verdict (env : Probe.env) ~src ~src_ip ~dst =
  let net = env.Probe.net and failures = env.Probe.failures in
  match (Dataplane.Forward.walk net failures ~src ~dst ()).Dataplane.Forward.outcome with
  | Dataplane.Forward.Delivered -> begin
      match Probe.responder env dst with
      | Some r -> Dataplane.Forward.delivers net failures ~src:r ~dst:src_ip
      | None -> false
    end
  | Dataplane.Forward.No_route _ | Dataplane.Forward.Loop | Dataplane.Forward.Dropped _ -> false

let verdict_counts () =
  let snap = Obs.Metrics.snapshot () in
  let c = Obs.Metrics.counter_value snap in
  (c "meas.probes", c "meas.verdict.hits", c "meas.verdict.misses")

(* A random generated world with a multi-homed origin announcing its
   production prefix under a sentinel, plus every infrastructure prefix;
   40 random mutations of the control plane, the failure set and the
   clock follow. After each one, every question in a fixed set is
   asked twice through the memo (as [ping_from] and as [spoofed_ping]) and
   must match a fresh walk, and each ask must cost exactly one probe. *)
let differential_run ~seed ~fib_install_delay ?shards () =
  let rng = Prng.create ~seed in
  let gen =
    Topology.Topo_gen.generate ~params:(Topology.Topo_gen.sized 40) ~seed:(Prng.int rng 100000) ()
  in
  let graph = gen.Topology.Topo_gen.graph in
  let origin = Asn.of_int 64500 in
  Topology.As_graph.add_as graph ~tier:4 origin;
  let providers =
    Array.to_list
      (Prng.sample_without_replacement rng 2 (Array.of_list gen.Topology.Topo_gen.tier2))
  in
  List.iter
    (fun p -> Topology.As_graph.add_link graph ~a:origin ~b:p ~rel:Topology.Relationship.Provider)
    providers;
  let engine = Sim.Engine.create () in
  let net = Bgp.Network.create ~engine ~graph ~mrai:5.0 ~fib_install_delay ?shards () in
  let failures = Dataplane.Failure.create () in
  let env = Probe.env net failures in
  let plan = Lifeguard.Remediate.plan ~sentinel ~origin ~production () in
  Dataplane.Forward.announce_infrastructure net;
  Lifeguard.Remediate.announce_baseline net plan;
  Bgp.Network.run_until_quiet net;
  let ases = Array.of_list (Topology.As_graph.as_list graph) in
  let transits = Array.of_list (Topology.Topo_gen.transit_ases gen) in
  let pick () = Prng.pick rng ases in
  let addr asn = Dataplane.Forward.probe_address net asn in
  let sentinel_src = Option.get (Lifeguard.Remediate.sentinel_unused_address plan) in
  let srcs = origin :: List.init 4 (fun _ -> pick ()) in
  let dsts = Prefix.nth_address production 1 :: List.init 4 (fun _ -> addr (pick ())) in
  let questions =
    List.concat_map
      (fun src ->
        List.concat_map
          (fun dst ->
            [ (src, addr src, dst); (src, sentinel_src, dst); (src, addr (pick ()), dst) ])
          dsts)
      srcs
  in
  let links = Array.of_list (List.map (fun p -> (origin, p)) providers) in
  let link () =
    if Prng.bool rng then Prng.pick rng links
    else begin
      let a = Prng.pick rng transits in
      match Topology.As_graph.neighbors graph a with
      | [] -> Prng.pick rng links
      | ns -> (a, fst (Prng.pick_list rng ns))
    end
  in
  let random_failure () =
    let scope =
      match Prng.int rng 3 with
      | 0 -> Dataplane.Failure.Node (Prng.pick rng transits)
      | 1 ->
          let a, b = link () in
          Dataplane.Failure.Link (a, b)
      | _ ->
          let a, b = link () in
          Dataplane.Failure.Link_dir (a, b)
    in
    let toward = if Prng.bool rng then Some production else None in
    Dataplane.Failure.spec ?toward scope
  in
  let step () =
    match Prng.int rng 16 with
    | 0 -> Lifeguard.Remediate.poison net plan ~target:(Prng.pick rng transits)
    | 1 -> Lifeguard.Remediate.unpoison net plan
    | 2 -> Bgp.Network.withdraw net ~origin ~prefix:(if Prng.bool rng then production else sentinel)
    | 3 -> Lifeguard.Remediate.announce_baseline net plan
    | 4 ->
        let a, b = link () in
        Bgp.Network.fail_link net ~a ~b
    | 5 ->
        let a, b = link () in
        Bgp.Network.restore_link net ~a ~b
    | 6 -> Bgp.Network.fail_node net (Prng.pick rng transits)
    | 7 -> Bgp.Network.restore_node net (Prng.pick rng transits)
    | 8 -> Dataplane.Failure.add failures (random_failure ())
    | 9 -> begin
        match Dataplane.Failure.active failures with
        | [] -> Dataplane.Failure.add failures (random_failure ())
        | specs -> Dataplane.Failure.remove failures (Prng.pick_list rng specs)
      end
    | 10 -> Dataplane.Failure.clear failures
    | 11 | 12 -> ignore (Sim.Engine.step engine)
    | _ ->
        (* Mid-convergence: a few simulated seconds, not to quiet. *)
        Sim.Engine.run ~until:(Sim.Engine.now engine +. (3.0 *. Prng.float rng)) engine
  in
  let check_all label =
    List.iter
      (fun (src, src_ip, dst) ->
        let expected = fresh_verdict env ~src ~src_ip ~dst in
        let sent = env.Probe.probes_sent and probes, _, _ = verdict_counts () in
        Alcotest.(check bool)
          (label ^ ": ping_from") expected
          (Probe.ping_from env ~src ~src_ip ~dst);
        Alcotest.(check bool)
          (label ^ ": spoofed_ping") expected
          (Probe.spoofed_ping env ~sender:src ~spoof_src:src_ip ~dst);
        let probes', _, _ = verdict_counts () in
        Alcotest.(check int) (label ^ ": probes_sent +2") (sent + 2) env.Probe.probes_sent;
        Alcotest.(check int) (label ^ ": meas.probes +2") (probes + 2) probes')
      questions
  in
  (* The version itself: whenever it stands still, every AS's FIB answer
     and every owner answer for the probed addresses stands still too. *)
  let addresses = sentinel_src :: dsts @ List.map addr srcs in
  let view () =
    ( Bgp.Network.dataplane_version net,
      List.concat_map
        (fun asn ->
          List.map
            (fun ip ->
              match Bgp.Network.fib_lookup net asn ip with
              | Some (p, entry) -> Prefix.to_string p ^ "/" ^ Asn.to_string entry.Bgp.Route.neighbor
              | None -> "-")
            addresses)
        (Array.to_list ases),
      List.map
        (fun ip ->
          match Bgp.Network.owner_of_address net ip with
          | Some (p, o) -> Prefix.to_string p ^ "@" ^ Asn.to_string o
          | None -> "-")
        addresses )
  in
  check_all "converged";
  let before = ref (view ()) in
  for i = 1 to 40 do
    step ();
    let label = Printf.sprintf "seed %d step %d" seed i in
    let ((version, fibs, owners) as now) = view () in
    let version0, fibs0, owners0 = !before in
    if version = version0 then begin
      Alcotest.(check (list string)) (label ^ ": same version, same FIBs") fibs0 fibs;
      Alcotest.(check (list string)) (label ^ ": same version, same owners") owners0 owners
    end;
    before := now;
    check_all label
  done

let test_verdict_memo_differential () =
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      List.iter
        (fun seed ->
          differential_run ~seed ~fib_install_delay:0.0 ();
          differential_run ~seed ~fib_install_delay:8.0 ())
        [ 1; 2; 3 ];
      List.iter
        (fun seed ->
          differential_run ~seed ~fib_install_delay:0.0 ~shards:2 ();
          differential_run ~seed ~fib_install_delay:4.0 ~shards:2 ())
        [ 4; 5 ];
      (* Both sides of the memo were exercised, and together they account
         for every probe. *)
      let probes, hits, misses = verdict_counts () in
      Alcotest.(check bool) (Printf.sprintf "hits (%d) and misses (%d)" hits misses) true
        (hits > 0 && misses > 0);
      Alcotest.(check int) "every probe is a hit or a miss" probes (hits + misses))

(* The memo's hit rate on one fixed fleet world (12 h, seed 5), pinned at half
   its measured value so a change that quietly defeats the memo (a
   version bumped where nothing changed, a key that never repeats) fails
   here. Counts, not wall-clock time, so the pin holds on a noisy host. *)
let measured_fleet_hit_rate = 0.972
let min_fleet_hit_rate = 0.5 *. measured_fleet_hit_rate

let test_verdict_memo_hit_rate_pinned () =
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let config =
    {
      Fleet.Service.default_config with
      Fleet.Service.duration = 43200.0;
      planning = true;
    }
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.disable ())
      (fun () -> Fleet.Service.run ~config ~seed:5 ())
  in
  let _, hits, misses = verdict_counts () in
  Obs.Metrics.reset ();
  Alcotest.(check bool) "the world probed" true (r.Fleet.Service.monitor_pairs > 0);
  let rate = float_of_int hits /. float_of_int (hits + misses) in
  Alcotest.(check bool)
    (Printf.sprintf "verdict hit rate %.4f >= %.4f" rate min_fleet_hit_rate)
    true (rate >= min_fleet_hit_rate)

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "no route" `Quick test_no_route;
    Alcotest.test_case "node failure blocks" `Quick test_node_failure_blocks;
    Alcotest.test_case "directional link failure" `Quick test_directional_link_failure;
    Alcotest.test_case "toward scoping" `Quick test_toward_scoping;
    Alcotest.test_case "source blocked by own failure" `Quick test_source_blocked_by_own_failure;
    Alcotest.test_case "ping needs both directions" `Quick test_ping_requires_both_directions;
    Alcotest.test_case "misleading traceroute (Fig. 4)" `Quick test_misleading_traceroute;
    Alcotest.test_case "dropped hop is silent" `Quick test_dropped_hop_does_not_respond;
    Alcotest.test_case "ping from sentinel space" `Quick test_ping_from_sentinel_space;
    Alcotest.test_case "reverse traceroute" `Quick test_reverse_traceroute;
    Alcotest.test_case "probe accounting" `Quick test_probe_accounting;
    Alcotest.test_case "failure equality / heal" `Quick test_failure_spec_equality_and_heal;
    Alcotest.test_case "control+data failure" `Quick test_control_and_data_failure;
    Alcotest.test_case "verdict memo matches fresh walks" `Quick test_verdict_memo_differential;
    Alcotest.test_case "verdict memo hit rate pinned" `Quick test_verdict_memo_hit_rate_pinned;
  ]

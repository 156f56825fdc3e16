open Net
open Topology

(* Probe-issue accounting (Obs): [meas.probes] mirrors the per-env
   [probes_sent] totals the experiments report, and each charge emits a
   "meas.probe" trace event stamped with simulation time. *)
let m_probes = Obs.Metrics.counter "meas.probes"
let m_verdict_hits = Obs.Metrics.counter "meas.verdict.hits"
let m_verdict_misses = Obs.Metrics.counter "meas.verdict.misses"

(* A round-trip ping question: (source AS, reply address, destination),
   hashed by explicit integer mixing rather than the polymorphic hash. *)
type question = { q_src : int; q_src_ip : int; q_dst : int }

module Verdict_tbl = Hashtbl.Make (struct
  type t = question

  let equal a b =
    Int.equal a.q_src b.q_src && Int.equal a.q_src_ip b.q_src_ip && Int.equal a.q_dst b.q_dst

  let hash q =
    let z = (q.q_src * 0x9E3779B1) lxor (q.q_src_ip * 0x85EBCA6B) lxor (q.q_dst * 0xC2B2AE35) in
    (z lxor (z lsr 16)) land max_int
end)

(* Ping verdicts computed against one state of the data plane, stamped
   with the env's network and failure-set versions at the time. *)
type verdicts = {
  table : bool Verdict_tbl.t;
  mutable net_version : int;
  mutable failure_version : int;
}

type env = {
  net : Bgp.Network.t;
  failures : Failure.set;
  mutable probes_sent : int;
  verdicts : verdicts;
}

let env net failures =
  {
    net;
    failures;
    probes_sent = 0;
    verdicts = { table = Verdict_tbl.create 64; net_version = -1; failure_version = -1 };
  }

let reset_probe_count t = t.probes_sent <- 0

let count t n =
  t.probes_sent <- t.probes_sent + n;
  Obs.Metrics.add m_probes n;
  if Obs.Trace.on () then
    Obs.Trace.event
      ~ts:(Sim.Engine.now (Bgp.Network.engine t.net))
      ~span:"meas.probe"
      [ ("n", Obs.Trace.Int n) ]

let responder t ip =
  match As_graph.owner_of_address (Bgp.Network.graph t.net) ip with
  | Some asn -> Some asn
  | None ->
      (* Addresses inside production/sentinel prefixes rather than router
         space: the originating AS answers. *)
      Option.map snd (Bgp.Network.owner_of_address t.net ip)

let reply_delivers t ~from_ ~to_ip =
  Forward.delivers t.net t.failures ~src:from_ ~dst:to_ip

let round_trip t ~src ~src_ip ~dst =
  let request = Forward.walk t.net t.failures ~src ~dst () in
  match request.Forward.outcome with
  | Forward.Delivered -> begin
      match responder t dst with
      | Some responder_as -> reply_delivers t ~from_:responder_as ~to_ip:src_ip
      | None -> false
    end
  | Forward.No_route _ | Forward.Loop | Forward.Dropped _ -> false

(* Empty the memo unless it was filled against this very data plane. *)
let current_verdicts t =
  let v = t.verdicts in
  let net_version = Bgp.Network.dataplane_version t.net in
  let failure_version = Failure.version t.failures in
  if
    (not (Int.equal v.net_version net_version))
    || not (Int.equal v.failure_version failure_version)
  then begin
    Verdict_tbl.reset v.table;
    v.net_version <- net_version;
    v.failure_version <- failure_version
  end;
  v.table

let ip_key ip = Int32.to_int (Ipv4.to_int32 ip)

(* The verdict is a pure function of the question and the data-plane
   state the stamp names, so a hit returns exactly what the walk would;
   the probe is charged either way. *)
let ping_from t ~src ~src_ip ~dst =
  count t 1;
  let table = current_verdicts t in
  let q = { q_src = Asn.to_int src; q_src_ip = ip_key src_ip; q_dst = ip_key dst } in
  match Verdict_tbl.find table q with
  | ok ->
      Obs.Metrics.incr m_verdict_hits;
      ok
  | exception Not_found ->
      Obs.Metrics.incr m_verdict_misses;
      let ok = round_trip t ~src ~src_ip ~dst in
      Verdict_tbl.add table q ok;
      ok

let ping t ~src ~dst = ping_from t ~src ~src_ip:(Forward.probe_address t.net src) ~dst
let spoofed_ping t ~sender ~spoof_src ~dst = ping_from t ~src:sender ~src_ip:spoof_src ~dst

type trace_hop = { hop : Forward.hop; responded : bool }

type trace = {
  hops : trace_hop list;
  reached : bool;
  outcome : Forward.outcome;
}

let last_responsive_as trace =
  List.fold_left
    (fun acc th -> if th.responded then Some th.hop.Forward.asn else acc)
    None trace.hops

let visible_path trace =
  let rec take acc = function
    | [] -> List.rev acc
    | th :: rest -> if th.responded then take (th.hop.Forward.asn :: acc) rest else take acc rest
  in
  (* Hops whose replies were lost appear as '*' in real traceroute output;
     the visible AS path is the responsive subsequence. *)
  take [] trace.hops

let trace_with_replies t ~src ~reply_to ~dst =
  let walk = Forward.walk t.net t.failures ~src ~dst () in
  count t (List.length walk.Forward.hops);
  (* The hop a failure consumed the packet at never saw it with a live
     TTL, so it cannot answer. *)
  let dropped_at =
    match walk.Forward.outcome with
    | Forward.Dropped { at; _ } -> Some at
    | Forward.Delivered | Forward.No_route _ | Forward.Loop -> None
  in
  let hops =
    List.map
      (fun (h : Forward.hop) ->
        let responded =
          (* The source hop trivially "responds"; other hops' TTL-expired
             replies must route back to the measuring address. *)
          (match dropped_at with
          | Some at when Asn.equal at h.Forward.asn -> false
          | Some _ | None ->
              Asn.equal h.Forward.asn src
              || reply_delivers t ~from_:h.Forward.asn ~to_ip:reply_to)
        in
        { hop = h; responded })
      walk.Forward.hops
  in
  let reached =
    match walk.Forward.outcome with
    | Forward.Delivered -> begin
        match responder t dst with
        | Some responder_as -> reply_delivers t ~from_:responder_as ~to_ip:reply_to
        | None -> false
      end
    | Forward.No_route _ | Forward.Loop | Forward.Dropped _ -> false
  in
  { hops; reached; outcome = walk.Forward.outcome }

let traceroute t ~src ~dst =
  trace_with_replies t ~src ~reply_to:(Forward.probe_address t.net src) ~dst

let spoofed_traceroute t ~sender ~spoof_src ~dst =
  trace_with_replies t ~src:sender ~reply_to:spoof_src ~dst

let reverse_traceroute t ~vantage_points ~from_ ~to_ip =
  let target_address = Forward.probe_address t.net from_ in
  let some_vp_reaches =
    List.exists
      (fun vp -> Forward.delivers t.net t.failures ~src:vp ~dst:target_address)
      vantage_points
  in
  if not some_vp_reaches then None
  else begin
    (* Amortized cost from the paper's atlas accounting: ~10 IP-option
       probes plus ~2 supporting traceroutes of ~8 hops. *)
    count t (10 + 16);
    let walk = Forward.walk t.net t.failures ~src:from_ ~dst:to_ip () in
    let hops = List.map (fun h -> { hop = h; responded = true }) walk.Forward.hops in
    let reached =
      match walk.Forward.outcome with
      | Forward.Delivered -> true
      | Forward.No_route _ | Forward.Loop | Forward.Dropped _ -> false
    in
    Some { hops; reached; outcome = walk.Forward.outcome }
  end

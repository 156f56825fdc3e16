open Net
open Topology

(* Decision-process invocations, the full candidate scans among them,
   and the loc-RIB size high-watermark (Obs). The gauge is a max, not a
   last-write: a max merges across domain shards independently of trial
   scheduling, which keeps the --metrics summary byte-identical for every
   --jobs value. *)
let m_decisions = Obs.Metrics.counter "bgp.decisions"
let m_scans = Obs.Metrics.counter "bgp.decision.scans"
let m_loc_rib = Obs.Metrics.gauge "bgp.loc_rib"

type action = Announce of Route.announcement | Withdraw of Prefix.t
type out = (int * action) list

type origination = {
  per_neighbor : Asn.t -> As_path.t option;
  local_ann : Route.announcement;
      (* The interned loc-RIB announcement ([self] plain path), built once
         at [originate] so every [select] reuses the same physical
         value and the refresh change-check settles on [==]. *)
}

module Damp_key = struct
  type t = Prefix.t * Asn.t

  let equal (p1, n1) (p2, n2) = Prefix.equal p1 p2 && Asn.equal n1 n2
  let hash (p, n) = (Prefix.hash p lxor (Asn.hash n * 0x9E3779B1)) land max_int
end

module Damp_tbl = Hashtbl.Make (Damp_key)

(* One neighbor session, at the dense index ("slot") it got at [create].
   Everything the per-update path needs about the neighbor sits here, so
   a delivery never hashes an ASN. *)
type slot = {
  nbr : Asn.t;
  rel : Relationship.t;  (** What the neighbor is to us. *)
  import_pref : int;
      (** {!Policy.local_pref_for} this session: it depends only on the
          config, [self], the neighbor and [rel], so it is computed once. *)
  mutable down : bool;
}

(* Everything a speaker holds for one prefix. [cand] and [out] are
   slot-indexed: the adj-RIB-in ([Decision.vacant] = no candidate) and
   the adj-RIB-out ([no_ann] = nothing sent). *)
type rib = {
  prefix : Prefix.t;
  withdraw : action;  (** The prefix's [Withdraw], shared by every update. *)
  cand : Route.entry array;
  out : Route.announcement array;
  mutable best : Route.entry option;  (** The loc-RIB entry. *)
  mutable local : origination option;
}

type t = {
  self : Asn.t;
  config : Policy.config;
  store : Path_store.t;
      (* The world's interner: shared with every other speaker of the same
         [Network], never across worlds (share-nothing). *)
  slots : slot array;  (** In the order [create] got the neighbors. *)
  slot_ix : int Asn.Table.t;  (** Neighbor -> slot, for the ASN-keyed entry points. *)
  peers_of_self : Asn.Set.t;
  ribs : rib Prefix.Table.t;
  mutable loc_rib_size : int;  (** Ribs with a best route. *)
  mutable med_seen : bool;
      (** Some accepted candidate ever carried a MED; from then on every
          decision scans (see [select]). *)
  mutable fib : Route.entry Prefix_trie.t;
  mutable on_best_change : (now:float -> Prefix.t -> Route.entry option -> unit) option;
  mutable fib_commit : (Prefix.t -> Route.entry option -> unit) option;
  damp : damp_state Damp_tbl.t;
  mutable suppressed_n : int;
      (** Damping records currently suppressed: whether any candidate can
          be ineligible (see [select]). Records are never dropped, so the
          size of [damp] cannot tell. *)
  mutable on_fib_install : unit -> unit;
  mutable reuse_scheduler : (delay:float -> Prefix.t -> unit) option;
}

and damp_state = { mutable penalty : float; mutable last : float; mutable suppressed : bool }

(* The adj-RIB-out's "nothing sent" sentinel, compared with [==]. *)
let no_ann = Decision.vacant.Route.ann

let create ?store ~asn ~config ~neighbors () =
  let slots =
    Array.of_list
      (List.map
         (fun (nbr, rel) ->
           {
             nbr;
             rel;
             import_pref = Policy.local_pref_for config ~self:asn ~neighbor:nbr ~rel;
             down = false;
           })
         neighbors)
  in
  let slot_ix = Asn.Table.create (Array.length slots) in
  Array.iteri (fun i s -> Asn.Table.replace slot_ix s.nbr i) slots;
  let peers =
    List.fold_left
      (fun acc (n, rel) ->
        if Relationship.equal rel Relationship.Peer then Asn.Set.add n acc else acc)
      Asn.Set.empty neighbors
  in
  {
    self = asn;
    config;
    store = (match store with Some s -> s | None -> Path_store.create ());
    slots;
    slot_ix;
    peers_of_self = peers;
    ribs = Prefix.Table.create 16;
    loc_rib_size = 0;
    med_seen = false;
    fib = Prefix_trie.empty;
    on_best_change = None;
    fib_commit = None;
    damp = Damp_tbl.create 16;
    suppressed_n = 0;
    on_fib_install = ignore;
    reuse_scheduler = None;
  }

let asn t = t.self
let config t = t.config
let path_store t = t.store
let neighbors t = Array.to_list (Array.map (fun s -> (s.nbr, s.rel)) t.slots)
let set_on_best_change t f = t.on_best_change <- Some f
let set_reuse_scheduler t f = t.reuse_scheduler <- Some f
let set_fib_commit_hook t f = t.fib_commit <- Some f
let set_on_fib_install t f = t.on_fib_install <- f

let slot_of t n =
  match Asn.Table.find_opt t.slot_ix n with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Speaker %s: unknown neighbor %s" (Asn.to_string t.self)
           (Asn.to_string n))

let neighbor_at t i = t.slots.(i).nbr

let rib_for t prefix =
  match Prefix.Table.find_opt t.ribs prefix with
  | Some rib -> rib
  | None ->
      let n = Array.length t.slots in
      let rib =
        {
          prefix;
          withdraw = Withdraw prefix;
          cand = Array.make n Decision.vacant;
          out = Array.make n no_ann;
          best = None;
          local = None;
        }
      in
      Prefix.Table.replace t.ribs prefix rib;
      rib

(* --- Route-flap damping (RFC 2439, simplified) --- *)

let decayed_penalty (cfg : Policy.damping) state ~now =
  let dt = now -. state.last in
  if dt <= 0.0 then state.penalty
  else state.penalty *. (0.5 ** (dt /. cfg.Policy.half_life))

(* Record one flap of (prefix, neighbor); returns true when the route
   just crossed into suppression. *)
let note_flap t ~now prefix neighbor =
  match t.config.Policy.damping with
  | None -> false
  | Some cfg ->
      let key = (prefix, neighbor) in
      let state =
        match Damp_tbl.find_opt t.damp key with
        | Some s -> s
        | None ->
            let s = { penalty = 0.0; last = now; suppressed = false } in
            Damp_tbl.replace t.damp key s;
            s
      in
      state.penalty <- decayed_penalty cfg state ~now +. cfg.Policy.penalty_per_flap;
      state.last <- now;
      if (not state.suppressed) && state.penalty >= cfg.Policy.suppress_threshold then begin
        state.suppressed <- true;
        t.suppressed_n <- t.suppressed_n + 1;
        (* Ask for a wake-up when the penalty will have decayed to the
           reuse threshold. *)
        (match t.reuse_scheduler with
        | Some schedule ->
            let ratio = state.penalty /. cfg.Policy.reuse_threshold in
            let delay = cfg.Policy.half_life *. (log ratio /. log 2.0) in
            schedule ~delay:(Float.max 1.0 delay) prefix
        | None -> ());
        true
      end
      else false

(* Lazily lift suppression once the penalty has decayed. *)
let is_suppressed t ~now prefix neighbor =
  match t.config.Policy.damping with
  | None -> false
  | Some cfg -> begin
      match Damp_tbl.find_opt t.damp (prefix, neighbor) with
      | None -> false
      | Some state ->
          if not state.suppressed then false
          else begin
            let p = decayed_penalty cfg state ~now in
            if p < cfg.Policy.reuse_threshold then begin
              state.penalty <- p;
              state.last <- now;
              state.suppressed <- false;
              t.suppressed_n <- t.suppressed_n - 1;
              false
            end
            else true
          end
    end

let install_fib t prefix entry =
  (match entry with
  | Some e -> t.fib <- Prefix_trie.add prefix e t.fib
  | None -> t.fib <- Prefix_trie.remove prefix t.fib);
  t.on_fib_install ()

(* Full candidate scan: damped candidates are ineligible until their
   penalty decays (and [is_suppressed] lifts decayed suppressions as a
   side effect, for every candidate, as each scan always has). With no
   record suppressed every candidate is eligible and there is nothing to
   lift. *)
let scan t ~now rib =
  Obs.Metrics.incr m_scans;
  if t.suppressed_n = 0 then Decision.best_slots rib.cand
  else
    Decision.best_slots
      ~eligible:(fun i -> not (is_suppressed t ~now rib.prefix t.slots.(i).nbr))
      rib.cand

(* The loc-RIB best for a prefix: a local origination wins outright;
   otherwise the most preferred candidate. [moved] is the one slot whose
   candidate changed since the last selection, or [-1] when more may
   have (an origination change, a damping wake-up).

   Without MEDs, [Decision.compare_entries] is a strict total order over
   one prefix's candidates (they differ in neighbor), so the stored best
   is the maximum and one changed slot can be folded in with a single
   comparison: a better candidate takes over, a withdrawal elsewhere
   changes nothing, and only the best's own neighbor withdrawing or
   getting worse needs the full scan. MED comparison is not transitive
   and damping makes candidates ineligible over time; once a MED has
   been seen, or while any record is suppressed, every selection scans.
   A suppression is only ever lifted inside a scan of its own prefix, so
   when none is live every stored best is already the maximum over all
   candidates and the single comparison is exact again. *)
let select t ~now rib ~moved =
  Obs.Metrics.incr m_decisions;
  match rib.local with
  | Some { local_ann; _ } -> Some (Route.local_entry_of ~ann:local_ann ~self:t.self ~now)
  | None when moved < 0 || t.med_seen || t.suppressed_n <> 0 -> scan t ~now rib
  | None -> begin
      let e = rib.cand.(moved) in
      match rib.best with
      | None -> if e == Decision.vacant then None else Some e
      | Some b when Asn.equal b.Route.neighbor t.slots.(moved).nbr ->
          if e != Decision.vacant && Decision.compare_entries e b >= 0 then Some e
          else scan t ~now rib
      | Some b ->
          if e != Decision.vacant && Decision.compare_entries e b > 0 then Some e
          else rib.best
    end

(* Desired announcement toward the neighbor in slot [i], or [no_ann].
   [best_out] is the neighbor-independent export of the best route,
   forced only when some neighbor may receive it. *)
let desired t rib i best_out =
  let s = t.slots.(i) in
  if s.down then no_ann
  else begin
    match rib.local with
    | Some { per_neighbor; _ } -> begin
        match per_neighbor s.nbr with
        | Some path ->
            Path_store.intern_ann t.store (Route.announcement ~prefix:rib.prefix ~path ())
        | None -> no_ann
      end
    | None -> begin
        match rib.best with
        | Some entry
          when Policy.export_allowed t.config ~self:t.self ~entry ~to_neighbor:s.nbr
                 ~to_rel:s.rel ->
            Lazy.force best_out
        | Some _ | None -> no_ann
      end
  end

let best_out t rib =
  lazy
    (match rib.best with
    | None -> no_ann
    | Some entry -> Path_store.intern_ann t.store (Policy.export_ann t.config ~self:t.self ~entry))

(* Diff desired exports against the adj-RIB-out; mutate it and return the
   updates to put on the wire, in slot order. The best-route outgoing
   announcement is interned at most once per sync and shared by every
   permitted neighbor. *)
let sync_exports t rib =
  let best_out = best_out t rib in
  let updates = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    let d = desired t rib i best_out in
    let c = rib.out.(i) in
    if d == no_ann then begin
      if c != no_ann then begin
        rib.out.(i) <- no_ann;
        updates := (i, rib.withdraw) :: !updates
      end
    end
    else if c == no_ann || not (Route.announcement_equal d c) then begin
      rib.out.(i) <- d;
      updates := (i, Announce d) :: !updates
    end
  done;
  !updates

(* [force_sync] matters when per-neighbor desired exports can move without
   the loc-RIB best changing: an origination change (the local best keeps
   its plain path while [per_neighbor] now says something else) or an
   explicit re-advertisement. The plain receive path skips the all-neighbor
   sync whenever the best is unchanged — with an unchanged loc-RIB, every
   desired export is unchanged too, so an unconditional scan provably
   emits nothing. *)
let refresh_best ?(force_sync = false) t ~now rib ~moved =
  let old_best = rib.best in
  let new_best = select t ~now rib ~moved in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b ->
        not (Route.announcement_equal a.Route.ann b.Route.ann)
        || not (Asn.equal a.Route.neighbor b.Route.neighbor)
    | _ -> true
  in
  if changed then begin
    (match (old_best, new_best) with
    | None, Some _ -> t.loc_rib_size <- t.loc_rib_size + 1
    | Some _, None -> t.loc_rib_size <- t.loc_rib_size - 1
    | _ -> ());
    rib.best <- new_best;
    Obs.Metrics.observe_max m_loc_rib t.loc_rib_size;
    (match t.fib_commit with
    | Some commit -> commit rib.prefix new_best
    | None -> install_fib t rib.prefix new_best);
    match t.on_best_change with
    | Some f -> f ~now rib.prefix new_best
    | None -> ()
  end;
  if changed || force_sync then sync_exports t rib else []

let originate t ~now ~prefix ~per_neighbor =
  let local_ann =
    Path_store.intern_ann t.store
      (Route.announcement ~prefix ~path:(As_path.plain ~origin:t.self) ())
  in
  let rib = rib_for t prefix in
  rib.local <- Some { per_neighbor; local_ann };
  refresh_best ~force_sync:true t ~now rib ~moved:(-1)

let stop_originating t ~now ~prefix =
  let rib = rib_for t prefix in
  rib.local <- None;
  refresh_best ~force_sync:true t ~now rib ~moved:(-1)

let receive t ~now ~slot action =
  let s = t.slots.(slot) in
  if s.down then []
  else begin
    match action with
    | Withdraw prefix ->
        let rib = rib_for t prefix in
        if rib.cand.(slot) != Decision.vacant then begin
          ignore (note_flap t ~now prefix s.nbr);
          rib.cand.(slot) <- Decision.vacant
        end;
        refresh_best t ~now rib ~moved:slot
    | Announce ann ->
        let ann = Path_store.intern_ann t.store ann in
        let rib = rib_for t ann.Route.prefix in
        (* A changed announcement from a neighbor that already had a route
           is a flap. *)
        let previous = rib.cand.(slot) in
        if previous != Decision.vacant && not (Route.announcement_equal previous.Route.ann ann)
        then ignore (note_flap t ~now rib.prefix s.nbr);
        (match Policy.import t.config ~self:t.self ~peers_of_self:t.peers_of_self ~rel:s.rel ann with
        | Policy.Rejected _ ->
            (* An update that fails import replaces (removes) whatever this
               neighbor previously announced for the prefix. *)
            rib.cand.(slot) <- Decision.vacant
        | Policy.Accepted ->
            if Option.is_some ann.Route.med then t.med_seen <- true;
            rib.cand.(slot) <-
              Route.make_entry ~salt:(Asn.to_int t.self) ~ann ~neighbor:s.nbr ~rel:s.rel
                ~local_pref:s.import_pref ~learned_at:now ());
        refresh_best t ~now rib ~moved:slot
  end

let by_prefix r1 r2 = Prefix.compare r1.prefix r2.prefix

let session_down t ~now ~neighbor =
  let i = slot_of t neighbor in
  let s = t.slots.(i) in
  if s.down then []
  else begin
    s.down <- true;
    (* Drop the neighbor's candidates and clear the adj-RIB-out toward the
       dead session, so a later session_up re-announces from scratch. *)
    let affected =
      Prefix.Table.fold
        (fun _ rib acc ->
          rib.out.(i) <- no_ann;
          if rib.cand.(i) != Decision.vacant || Option.is_some rib.local then begin
            rib.cand.(i) <- Decision.vacant;
            rib :: acc
          end
          else acc)
        t.ribs []
    in
    List.concat_map (fun rib -> refresh_best t ~now rib ~moved:i) (List.sort by_prefix affected)
  end

let damping_pending t = t.suppressed_n <> 0

let session_up t ~now ~neighbor =
  let i = slot_of t neighbor in
  let s = t.slots.(i) in
  if not s.down then []
  else begin
    s.down <- false;
    let live =
      Prefix.Table.fold
        (fun _ rib acc ->
          if Option.is_some rib.best || Option.is_some rib.local then rib :: acc else acc)
        t.ribs []
      |> List.sort by_prefix
    in
    if damping_pending t then
      (* With a suppression live, re-running the decision process can
         lazily lift suppressions and move bests — keep the full refresh
         so that timing is unchanged. *)
      List.concat_map (fun rib -> refresh_best ~force_sync:true t ~now rib ~moved:(-1)) live
    else
      (* No damping: nothing about the loc-RIB moved while the session was
         down, and session_down cleared this neighbor's adj-RIB-out — so
         the only possible updates are announcements of current state
         toward the revived neighbor. Same output, without an
         all-neighbors sync per prefix. *)
      List.filter_map
        (fun rib ->
          let d = desired t rib i (best_out t rib) in
          if d == no_ann then None
          else begin
            rib.out.(i) <- d;
            Some (i, Announce d)
          end)
        live
  end

let refresh_prefix t ~prefix =
  match Prefix.Table.find_opt t.ribs prefix with
  | None -> []
  | Some rib ->
      (* Forget what was last sent so [sync_exports] re-emits the current
         desired announcement even when it is unchanged: the receiving
         side may have flushed or lost it (session reset, filtered
         update), which the diff against our own adj-RIB-out cannot see. *)
      Array.fill rib.out 0 (Array.length rib.out) no_ann;
      sync_exports t rib

let best t prefix =
  match Prefix.Table.find_opt t.ribs prefix with
  | Some rib -> rib.best
  | None -> None

let fib_lookup t ip = Prefix_trie.lookup ip t.fib

let ribs_where t keep =
  Prefix.Table.fold (fun p rib acc -> if keep rib then p :: acc else acc) t.ribs []
  |> List.sort Prefix.compare

let prefixes t = ribs_where t (fun rib -> Option.is_some rib.best)
let originated t = ribs_where t (fun rib -> Option.is_some rib.local)

let slot_view t prefix f =
  match Prefix.Table.find_opt t.ribs prefix with
  | None -> []
  | Some rib -> List.filter_map Fun.id (List.init (Array.length t.slots) (f rib))

let candidates t prefix =
  slot_view t prefix (fun rib i ->
      let e = rib.cand.(i) in
      if e == Decision.vacant then None else Some e)

let advertised t prefix =
  slot_view t prefix (fun rib i ->
      let a = rib.out.(i) in
      if a == no_ann then None else Some (t.slots.(i).nbr, a))

let adj_in_size t =
  Prefix.Table.fold
    (fun _ rib acc ->
      Array.fold_left (fun acc e -> if e == Decision.vacant then acc else acc + 1) acc rib.cand)
    t.ribs 0

let reevaluate t ~now prefix = refresh_best t ~now (rib_for t prefix) ~moved:(-1)

let suppressed_candidates t prefix =
  Damp_tbl.fold
    (fun (p, neighbor) state acc ->
      if Prefix.equal p prefix && state.suppressed then neighbor :: acc else acc)
    t.damp []
  |> List.sort Asn.compare

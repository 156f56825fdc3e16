(** A single BGP speaker (one AS).

    Pure protocol state machine: it holds the adj-RIB-in, loc-RIB, FIB and
    adj-RIB-out for its AS and, given an incoming update or a local
    origination change, returns the updates that should be sent to
    neighbors. Delivery timing (link delays, MRAI pacing) is the
    {!Network}'s job, which keeps this module synchronously testable.

    State is slot-indexed: each neighbor session gets a dense {e slot}
    at {!create} (its index in [neighbors]), and each prefix one record
    holding a slot-indexed adj-RIB-in and adj-RIB-out plus the loc-RIB
    best. Updates in and out are addressed by slot, so the delivery path
    does one prefix lookup and no per-neighbor hashing. Best-route
    selection is incremental: a changed candidate is compared once
    against the current best, and the candidates are rescanned only when
    the best's own neighbor withdraws or gets worse — or always, while a
    damping suppression is live or once a MED has been seen (see
    {!Decision.best_slots}).

    Observability: every run of the decision process increments the
    [bgp.decisions] counter, each full candidate rescan
    [bgp.decision.scans], and each loc-RIB change records the table's
    size into the [bgp.loc_rib] max-gauge (see {!Obs.Metrics}). *)

open Net
open Topology

type t

type action = Announce of Route.announcement | Withdraw of Prefix.t
(** An update destined to one neighbor. *)

type out = (int * action) list
(** Updates to send, each addressed to a neighbor slot ({!neighbor_at}),
    in slot order per prefix. *)

val create :
  ?store:Path_store.t ->
  asn:Asn.t ->
  config:Policy.config ->
  neighbors:(Asn.t * Relationship.t) list ->
  unit ->
  t
(** A speaker for [asn] with the given neighbor sessions. [store] is the
    world's path/announcement interner — {!Network.create} passes one
    store to every speaker of a world so their RIBs share physical values;
    a standalone speaker (tests) defaults to a private store. Never share
    a store across worlds: lib/par worlds are share-nothing. *)

val path_store : t -> Path_store.t
(** The interner this speaker stores paths and announcements in. *)

val asn : t -> Asn.t
(** The AS this speaker represents. *)

val config : t -> Policy.config
(** The import/export policy configuration the speaker was built with. *)

val neighbors : t -> (Asn.t * Relationship.t) list
(** The speaker's sessions, each with our relationship to that neighbor,
    in slot order. *)

val slot_of : t -> Asn.t -> int
(** The slot of a neighbor's session. Raises [Invalid_argument] for an AS
    that is not a neighbor. *)

val neighbor_at : t -> int -> Asn.t
(** The neighbor in a slot. *)

val originate :
  t -> now:float -> prefix:Prefix.t -> per_neighbor:(Asn.t -> As_path.t option) -> out
(** Start (or change) originating [prefix]. [per_neighbor] gives the AS
    path announced to each neighbor — [Some [asn]] for a plain
    announcement, a poisoned or prepended path for remediation, or [None]
    to withhold the prefix from that neighbor (selective advertising /
    selective poisoning). Returns the updates to send. *)

val stop_originating : t -> now:float -> prefix:Prefix.t -> out
(** Withdraw a locally-originated prefix everywhere. *)

val receive : t -> now:float -> slot:int -> action -> out
(** Process one update from the neighbor in [slot]: import policy, loc-RIB decision,
    and the resulting exports. A rejected announcement acts as an implicit
    withdraw of that neighbor's previous route. *)

val session_down : t -> now:float -> neighbor:Asn.t -> out
(** Drop every route learned from [neighbor] and stop exporting to it
    until {!session_up}. *)

val session_up : t -> now:float -> neighbor:Asn.t -> out
(** Re-enable the session and produce the full-table advertisement for
    that neighbor. When {!damping_pending} is false this takes a fast
    path that exports the current loc-RIB toward only the revived
    neighbor; with damping state live it re-runs the full decision
    process per prefix (a suppression may lift lazily and move a best).
    Both paths advertise the same routes — including a poison applied by
    a same-instant {!originate} or {!refresh_prefix}, in either relative
    order. *)

val damping_pending : t -> bool
(** Whether any route-flap damping record is currently suppressed. While
    true, {!session_up} uses its conservative slow path and every
    decision scans all candidates; records that are merely decaying
    leave both on their fast paths. *)

val refresh_prefix : t -> prefix:Prefix.t -> out
(** Force a re-advertisement of the current desired export for [prefix]
    toward every up neighbor, even when the adj-RIB-out says it was
    already sent. This is the idempotent re-announce primitive the
    remediation watchdog uses after a session reset or a lost update:
    the plain {!originate} diff is a no-op when our own book-keeping
    still holds the announcement the far side has since flushed. *)

val best : t -> Prefix.t -> Route.entry option
(** Current loc-RIB best route for exactly this prefix. *)

val fib_lookup : t -> Ipv4.t -> (Prefix.t * Route.entry) option
(** Longest-prefix match against the FIB — the data plane's view. By
    default the FIB tracks the loc-RIB atomically; a FIB-commit hook (set
    by the {!Network} when modeling RIB-to-FIB install latency) can delay
    the data plane behind the control plane, the window in which real
    routers blackhole or loop packets during convergence. *)

val set_fib_commit_hook : t -> (Prefix.t -> Route.entry option -> unit) -> unit
(** Divert FIB installs: when set, loc-RIB changes invoke the hook
    instead of updating the FIB; the hook (or anyone) must eventually
    call {!install_fib}. *)

val install_fib : t -> Prefix.t -> Route.entry option -> unit
(** Install (or remove, on [None]) the data-plane entry for a prefix,
    then call the {!set_on_fib_install} hook. *)

val set_on_fib_install : t -> (unit -> unit) -> unit
(** Called after every {!install_fib}, on whichever domain runs the
    speaker. The {!Network} counts installs with it to version the data
    plane. *)

val prefixes : t -> Prefix.t list
(** All prefixes with a loc-RIB entry. *)

val originated : t -> Prefix.t list
(** Prefixes this speaker currently originates locally. *)

val candidates : t -> Prefix.t -> Route.entry list
(** The adj-RIB-in for a prefix: every neighbor's current candidate, in
    slot order (damped ones included). *)

val advertised : t -> Prefix.t -> (Asn.t * Route.announcement) list
(** The adj-RIB-out for a prefix: what was last sent to each neighbor
    that has it, in slot order. *)

val adj_in_size : t -> int
(** Total adj-RIB-in entries across all prefixes (memory accounting). *)

val set_on_best_change : t -> (now:float -> Prefix.t -> Route.entry option -> unit) -> unit
(** Hook invoked after every loc-RIB change (used by route collectors and
    convergence instrumentation). *)

val set_reuse_scheduler : t -> (delay:float -> Prefix.t -> unit) -> unit
(** When route-flap damping suppresses a candidate, the speaker asks this
    hook to schedule a {!reevaluate} once the penalty will have decayed
    below the reuse threshold. Wired by the {!Network}. *)

val reevaluate : t -> now:float -> Prefix.t -> out
(** Re-run the decision process for a prefix (e.g. after a damping
    penalty decays); returns the updates to send. *)

val suppressed_candidates : t -> Prefix.t -> Asn.t list
(** Neighbors whose route for this prefix is currently damped. *)

(** Per-AS routing policy: import filtering, preference assignment and
    export filtering.

    The defaults implement the standard Gao–Rexford economics (prefer
    customer routes, export provider/peer routes only to customers) plus
    strict loop prevention. The quirks the paper encountered in the wild
    (§7.1) are configuration knobs: ASes that accept their own number in a
    path up to [k] times (defeated by inserting it twice), ASes that
    reject customer announcements containing one of their peers
    (Cogent-style filtering that limited poisoning via Georgia Tech), and
    ASes that strip community tags (which is why communities are not a
    dependable avoidance signal). *)

open Net
open Topology

type damping = {
  penalty_per_flap : float;  (** Added on each route change (RFC 2439 uses 1000). *)
  suppress_threshold : float;  (** Suppress the route above this (2000). *)
  reuse_threshold : float;  (** Re-enable once decayed below this (750). *)
  half_life : float;  (** Exponential decay half-life, seconds (900). *)
}
(** Route-flap damping parameters. The paper had to keep each poisoned
    announcement in place for 90 minutes precisely to stay clear of
    this mechanism: flapping a prefix quickly accumulates penalty until
    routers suppress it entirely. *)

val default_damping : damping

type config = {
  loop_limit : int;
      (** Reject a path containing our own ASN [loop_limit] or more times.
          1 = standard BGP loop prevention; 2 models ASes like AS286 that
          allow one occurrence for multi-site setups. *)
  reject_peers_in_customer_paths : bool;
      (** Cogent-style: refuse updates from customers whose path contains
          one of our peers. *)
  strip_communities : bool;  (** Drop community tags when re-exporting. *)
  honor_no_export_to_peers : bool;
      (** Honor the ["us:666"] community asking us not to export to
          peers. *)
  default_provider : Asn.t option;
      (** Data-plane default route: where to send packets with no matching
          FIB entry (common in stubs; makes them "captive" behind their
          provider). *)
  local_pref_override : (Asn.t * int) list;
      (** Per-neighbor local-preference overrides, replacing the
          relationship-based default. *)
  damping : damping option;
      (** Enable RFC 2439-style route-flap damping ([None] = off, the
          default — damping deployment declined sharply after 2006, but
          enough remained in 2012 to constrain the paper's announcement
          schedule). *)
  pref_jitter : int;
      (** Deterministic per-neighbor perturbation added to the
          relationship-based local preference, in [\[0, pref_jitter\]].
          Stands in for the per-peer traffic engineering real ISPs apply
          within a relationship class; non-zero values make forward and
          reverse AS paths asymmetric, as on the real Internet. 0 (the
          default) keeps preferences purely relationship-based. Must stay
          below the 100-point class separation. *)
}

val default : config
(** Strict loop prevention, no quirks, no default route. *)

val local_pref_for : config -> self:Asn.t -> neighbor:Asn.t -> rel:Relationship.t -> int
(** The local preference assigned to a route from this neighbor,
    including the configured jitter. *)

type import_verdict = Accepted | Rejected of string
(** Acceptance, or a rejection with the reason (for logs and tests). An
    accepted route's preference is {!local_pref_for} its session, which
    does not depend on the announcement, so a speaker computes it once
    per neighbor. *)

val import :
  config ->
  self:Asn.t ->
  peers_of_self:Asn.Set.t ->
  rel:Relationship.t ->
  Route.announcement ->
  import_verdict
(** Import policy for an announcement received over a session of
    relationship [rel]. Checks loop prevention against [loop_limit], then
    the Cogent quirk against [peers_of_self]. *)

val export_allowed :
  config ->
  self:Asn.t ->
  entry:Route.entry ->
  to_neighbor:Asn.t ->
  to_rel:Relationship.t ->
  bool
(** The per-neighbor half of {!export}: valley-free check, no-echo back to
    the learning neighbor, community blocks. Cheap — no allocation. *)

val export_ann : config -> self:Asn.t -> entry:Route.entry -> Route.announcement
(** The neighbor-independent half of {!export}: the announcement actually
    sent when {!export_allowed} holds (prepends [self] unless the entry is
    local, strips communities when configured, clears MED). Compute it
    once per prefix and reuse it for every permitted neighbor. *)

val export :
  config ->
  self:Asn.t ->
  entry:Route.entry ->
  to_neighbor:Asn.t ->
  to_rel:Relationship.t ->
  Route.announcement option
(** Export policy: Gao–Rexford valley-free export of the loc-RIB [entry]
    toward a neighbor, prepending [self], honoring NO_EXPORT and the
    no-export-to-peers community, and stripping communities when
    configured. [None] when the route must not be sent. Never exports back
    to the neighbor the route was learned from. *)

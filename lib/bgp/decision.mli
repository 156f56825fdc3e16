(** The BGP best-route decision process.

    Standard ordering: highest local preference, then shortest AS path
    (counting prepended copies — which is what makes prepending a traffic
    steering tool), then lowest MED among routes from the same neighboring
    AS, then lowest neighbor ASN as the deterministic tiebreak standing in
    for IGP cost / router-id. Two properties the paper leans on emerge
    from this ordering: a poisoned path [O-A-O] ties with the prepended
    baseline [O-O-O] (same length, same preference), so ASes not routing
    through [A] have no reason to explore alternatives.

    The per-speaker tiebreak salt is no longer a parameter here: it is
    baked into each entry at import time ([Route.make_entry ?salt]), so
    comparisons read the cached [path_len] and [tiebreak] fields instead
    of recomputing path length and a hash per comparison. *)

val compare_entries : Route.entry -> Route.entry -> int
(** [compare_entries a b > 0] when [a] is preferred over [b]. Total order
    over candidate entries for one prefix (entries built with the same
    salt). *)

val best : Route.entry list -> Route.entry option
(** Most preferred entry, [None] on the empty list. Entries carry their
    speaker's tiebreak rank (see {!Route.make_entry}): each AS breaks
    exact ties in its own idiosyncratic (but deterministic) order, which
    is what makes real forward and reverse routes asymmetric. Entries
    built without a salt fall back to lowest-neighbor-ASN. *)

val vacant : Route.entry
(** The empty-slot sentinel of a slot-indexed candidate array (one slot
    per neighbor session, see {!Speaker}). Compared physically ([==]);
    never a real candidate. *)

val best_slots : ?eligible:(int -> bool) -> Route.entry array -> Route.entry option
(** Most preferred non-{!vacant} entry of a slot array whose slot index
    satisfies [eligible] (default: every slot), scanning in slot order.
    Equal to {!best} over the eligible entries listed in slot order —
    which matters only when MEDs make {!compare_entries} intransitive. *)

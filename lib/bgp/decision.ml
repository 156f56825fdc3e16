open Net

(* MED is only comparable between routes learned from the same neighbor
   AS; a missing MED compares as 0 (cisco-style default). *)
let med_value = function
  | Some m -> m
  | None -> 0

(* Path length and the salted tiebreak rank are cached in the entry at
   import time (Route.make_entry); this comparison runs once per
   candidate per update, so it must not recompute either. *)
let compare_entries (a : Route.entry) (b : Route.entry) =
  match Int.compare a.local_pref b.local_pref with
  | 0 -> begin
      match Int.compare b.path_len a.path_len with
      | 0 -> begin
          let med_cmp =
            let a_first = As_path.first_hop a.ann.path
            and b_first = As_path.first_hop b.ann.path in
            if Option.equal Asn.equal a_first b_first then
              Int.compare (med_value b.ann.med) (med_value a.ann.med)
            else 0
          in
          match med_cmp with
          | 0 -> begin
              match Int.compare b.tiebreak a.tiebreak with
              | 0 -> Asn.compare b.neighbor a.neighbor
              | c -> c
            end
          | c -> c
        end
      | c -> c
    end
  | c -> c

let best entries =
  match entries with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc e -> if compare_entries e acc > 0 then e else acc)
           first rest)

(* A physically unique entry no import can produce: [==] against it is
   the "no candidate" test, so a slot array holds plain entries with no
   option box per slot. *)
let vacant =
  Route.make_entry
    ~ann:
      (Route.announcement
         ~prefix:(Prefix.make (Ipv4.of_octets 0 0 0 0) 0)
         ~path:(As_path.plain ~origin:(Asn.of_int 0))
         ())
    ~neighbor:(Asn.of_int 0) ~rel:Topology.Relationship.Provider ~local_pref:min_int
    ~learned_at:0.0 ()

let best_slots ?eligible slots =
  let best = ref vacant in
  for i = 0 to Array.length slots - 1 do
    let e = slots.(i) in
    if
      e != vacant
      && (match eligible with None -> true | Some ok -> ok i)
      && (!best == vacant || compare_entries e !best > 0)
    then best := e
  done;
  if !best == vacant then None else Some !best

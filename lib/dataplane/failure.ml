open Net

type scope = Node of Asn.t | Link of Asn.t * Asn.t | Link_dir of Asn.t * Asn.t
type mode = Data_only | Control_and_data
type spec = { scope : scope; mode : mode; toward : Prefix.t option }

let spec ?(mode = Data_only) ?toward scope = { scope; mode; toward }

let pp_scope fmt = function
  | Node a -> Format.fprintf fmt "node %a" Asn.pp a
  | Link (a, b) -> Format.fprintf fmt "link %a-%a" Asn.pp a Asn.pp b
  | Link_dir (a, b) -> Format.fprintf fmt "link %a->%a" Asn.pp a Asn.pp b

let pp_spec fmt t =
  Format.fprintf fmt "%a (%s)%a" pp_scope t.scope
    (match t.mode with Data_only -> "silent" | Control_and_data -> "hard")
    (fun fmt -> function
      | None -> ()
      | Some p -> Format.fprintf fmt " toward %a" Prefix.pp p)
    t.toward

let scope_equal a b =
  match (a, b) with
  | Node x, Node y -> Asn.equal x y
  | Link (x1, x2), Link (y1, y2) ->
      (Asn.equal x1 y1 && Asn.equal x2 y2) || (Asn.equal x1 y2 && Asn.equal x2 y1)
  | Link_dir (x1, x2), Link_dir (y1, y2) -> Asn.equal x1 y1 && Asn.equal x2 y2
  | (Node _ | Link _ | Link_dir _), _ -> false

let spec_equal a b =
  scope_equal a.scope b.scope && a.mode = b.mode && Option.equal Prefix.equal a.toward b.toward

(* [version] counts mutations, so a cached verdict stamped with it can
   tell whether the set it was computed against is still the set. *)
type set = { mutable specs : spec list; mutable version : int }

let create () = { specs = []; version = 0 }
let is_empty t = t.specs = []
let active t = t.specs
let version t = t.version

let set_specs t specs =
  t.specs <- specs;
  t.version <- t.version + 1

let add t spec = set_specs t (spec :: t.specs)
let remove t spec = set_specs t (List.filter (fun s -> not (spec_equal s spec)) t.specs)
let clear t = set_specs t []

let toward_matches spec dst =
  match spec.toward with
  | None -> true
  | Some p -> Prefix.mem dst p

let blocks_hop t ~from_ ~to_ ~dst =
  List.find_opt
    (fun spec ->
      toward_matches spec dst
      &&
      match spec.scope with
      | Node a -> Asn.equal a to_
      | Link (a, b) ->
          (Asn.equal a from_ && Asn.equal b to_) || (Asn.equal a to_ && Asn.equal b from_)
      | Link_dir (a, b) -> Asn.equal a from_ && Asn.equal b to_)
    t.specs

let blocks_source t asn ~dst =
  List.find_opt
    (fun spec ->
      toward_matches spec dst
      &&
      match spec.scope with
      | Node a -> Asn.equal a asn
      | Link _ | Link_dir _ -> false)
    t.specs

let control_action f net spec =
  match spec.scope with
  | Node a -> f net (`Node a)
  | Link (a, b) | Link_dir (a, b) -> f net (`Link (a, b))

let inject net set spec =
  add set spec;
  match spec.mode with
  | Data_only -> ()
  | Control_and_data ->
      control_action
        (fun net -> function
          | `Node a -> Bgp.Network.fail_node net a
          | `Link (a, b) -> Bgp.Network.fail_link net ~a ~b)
        net spec

let heal net set spec =
  remove set spec;
  match spec.mode with
  | Data_only -> ()
  | Control_and_data ->
      control_action
        (fun net -> function
          | `Node a -> Bgp.Network.restore_node net a
          | `Link (a, b) -> Bgp.Network.restore_link net ~a ~b)
        net spec

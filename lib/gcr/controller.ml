(* [sites.(i)] is the centre of grid cell i ([Bbox.split_grid] order),
   computed once here rather than on every [site_for]. *)
type t =
  | Centralized of Geometry.Point.t
  | Distributed of { die : Geometry.Bbox.t; grid : int; sites : Geometry.Point.t array }

let centralized die = Centralized (Geometry.Bbox.center die)

let distributed die ~k =
  if k <= 0 then invalid_arg "Controller.distributed: k must be positive";
  let grid = int_of_float (Float.round (sqrt (float_of_int k))) in
  if grid * grid <> k then
    invalid_arg "Controller.distributed: k must be a perfect square";
  if grid = 1 then centralized die
  else
    Distributed
      { die; grid; sites = Array.map Geometry.Bbox.center (Geometry.Bbox.split_grid die grid) }

let n_controllers = function
  | Centralized _ -> 1
  | Distributed { grid; _ } -> grid * grid

let sites = function
  | Centralized p -> [ p ]
  | Distributed { sites; _ } -> Array.to_list sites

let site_for t p =
  match t with
  | Centralized site -> site
  | Distributed { die; grid; sites } -> sites.(Geometry.Bbox.cell_index die grid p)

let wire_length t p = Geometry.Point.manhattan p (site_for t p)

let pp ppf = function
  | Centralized p -> Format.fprintf ppf "centralized @@ %a" Geometry.Point.pp p
  | Distributed { grid; _ } ->
    Format.fprintf ppf "distributed %dx%d (%d controllers)" grid grid (grid * grid)

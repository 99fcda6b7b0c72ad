let rec dedup_sorted ~cmp = function
  | a :: b :: rest when cmp a b = 0 -> dedup_sorted ~cmp (b :: rest)
  | a :: rest -> a :: dedup_sorted ~cmp rest
  | [] -> []

let sorted_set ~cmp xs = dedup_sorted ~cmp (List.sort cmp xs)

let rec union ~cmp a b =
  match (a, b) with
  | [], ys -> ys
  | xs, [] -> xs
  | x :: xs, y :: ys ->
      let c = cmp x y in
      if c < 0 then x :: union ~cmp xs (y :: ys)
      else if c > 0 then y :: union ~cmp (x :: xs) ys
      else x :: union ~cmp xs ys

let rec inter ~cmp a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
      let c = cmp x y in
      if c < 0 then inter ~cmp xs (y :: ys)
      else if c > 0 then inter ~cmp (x :: xs) ys
      else x :: inter ~cmp xs ys

let rec diff ~cmp a b =
  match (a, b) with
  | [], _ -> []
  | xs, [] -> xs
  | x :: xs, y :: ys ->
      let c = cmp x y in
      if c < 0 then x :: diff ~cmp xs (y :: ys)
      else if c > 0 then diff ~cmp (x :: xs) ys
      else diff ~cmp xs ys

let subset ~cmp a b = diff ~cmp a b = []

let equal_set ~cmp a b = List.compare cmp a b = 0

let rec mem ~cmp x = function
  | [] -> false
  | y :: ys ->
      let c = cmp x y in
      if c = 0 then true else if c < 0 then false else mem ~cmp x ys

(* A stable sort by key, then a split into runs of equal keys: each group
   keeps its elements' original order and takes its first element's key. *)
let group_by ~key ~cmp_key xs =
  let rec runs = function
    | [] -> []
    | (k, x) :: rest ->
        let rec split acc = function
          | (k', x') :: rest when cmp_key k k' = 0 -> split (x' :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let group, rest = split [ x ] rest in
        (k, group) :: runs rest
  in
  List.map (fun x -> (key x, x)) xs
  |> List.stable_sort (fun (a, _) (b, _) -> cmp_key a b)
  |> runs

let init = List.init

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: xs -> drop (n - 1) xs

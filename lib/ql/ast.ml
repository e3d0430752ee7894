open Esm_analysis
open Esm_relational

type mode = Strict | Fallback

let mode_name = function Strict -> "strict" | Fallback -> "fallback"

let mode_of_string = function
  | "strict" -> Some Strict
  | "fallback" -> Some Fallback
  | _ -> None

let level_name : Law_infer.level -> string = function
  | `Set_bx -> "setbx"
  | `Undoable -> "undoable"
  | `Overwriteable -> "overwriteable"
  | `Commuting -> "commuting"

let level_of_string : string -> Law_infer.level option = function
  | "setbx" -> Some `Set_bx
  | "undoable" -> Some `Undoable
  | "overwriteable" -> Some `Overwriteable
  | "commuting" -> Some `Commuting
  | _ -> None

type stmt =
  | Mode of mode
  | Expect of Law_infer.level
  | View of string * Query.t
  | Get of string
  | Put of string * Row.t list
  | Delta of string * Row_delta.t list

type script = stmt list

let pp_value fmt (v : Value.t) =
  match v with
  | Value.Int i -> Format.fprintf fmt "%d" i
  | Value.Str s -> Format.fprintf fmt "%S" s
  | Value.Bool b -> Format.fprintf fmt "%b" b

let pp_row fmt (r : Row.t) =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       pp_value)
    (Row.to_list r)

let pp_stmt fmt = function
  | Mode m -> Format.fprintf fmt "mode %s;" (mode_name m)
  | Expect l -> Format.fprintf fmt "expect level = %s;" (level_name l)
  | View (v, q) -> Format.fprintf fmt "view %s = %a;" v Query.pp q
  | Get v -> Format.fprintf fmt "get %s;" v
  | Put (v, rows) ->
      Format.fprintf fmt "put %s =%s%a;" v
        (if rows = [] then "" else " ")
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           pp_row)
        rows
  | Delta (v, ds) ->
      let pp_delta fmt (d : Row_delta.t) =
        match d with
        | Row_delta.Add r -> Format.fprintf fmt "+ %a" pp_row r
        | Row_delta.Remove r -> Format.fprintf fmt "- %a" pp_row r
      in
      Format.fprintf fmt "delta %s%s%a;" v
        (if ds = [] then "" else " ")
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
           pp_delta)
        ds

let pp fmt (s : script) =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "@.")
    pp_stmt fmt s

let to_string s = Format.asprintf "%a" pp s
let equal (s1 : script) (s2 : script) = s1 = s2

"""Golden CLI outputs: exact stdout, stderr and exit code per invocation.

One case per subcommand variant in each format that has output, plus the
error paths.  Unlike `test_cli.py`, these pin the exact bytes, including the
CSV and JSON renderings, so any change to the rendering shows here.
"""

from typing import NamedTuple

import pytest

from cfasym import cli


class Case(NamedTuple):
    argv: str
    code: int
    out: str
    err: str


GOLDEN = [
    Case("--format text expand 25 7", 0,
         "3,1,1,3\n",
         ""),
    Case("--format json expand 25 7", 0,
         '{"quotients": [3, 1, 1, 3]}\n',
         ""),
    Case("--format text expand 11 4 --parity even", 0,
         "2,1,2,1\n",
         ""),
    Case("--format json expand 11 4 --parity even", 0,
         '{"quotients": [2, 1, 2, 1]}\n',
         ""),
    Case("--format text expand 25 7 --predict-parity", 0,
         "even\n",
         ""),
    Case("--format json expand 25 7 --predict-parity", 0,
         ('{"predicted_parity": "even", "same_side": false, "u": 25, "v": 7, "v_inv'
          'erse": 18}\n'),
         ""),
    Case("--format text expand --from-quotients 3,1,1,3", 0,
         "25/7\n",
         ""),
    Case("--format json expand --from-quotients 3,1,1,3", 0,
         '{"alpha": 25, "beta": 7}\n',
         ""),
    Case("--format text continuant 2,1,2,1 --i 1 --j 3", 0,
         "4\n",
         ""),
    Case("--format json continuant 2,1,2,1 --i 1 --j 3", 0,
         '{"continuant": 4}\n',
         ""),
    Case("--format text continuant 3,1,1,3 --euler 0,1,2,3", 0,
         "0\n",
         ""),
    Case("--format json continuant 3,1,1,3 --euler 0,1,2,3", 0,
         '{"euler_residual": 0}\n',
         ""),
    Case("--format text continuant --fib 10", 0,
         "55\n",
         ""),
    Case("--format json continuant --fib 10", 0,
         '{"fibonacci": 55}\n',
         ""),
    Case("--format text anticont 5,1", 0,
         "4\n",
         ""),
    Case("--format json anticont 5,1", 0,
         '{"anticontinuant": 4}\n',
         ""),
    Case("--format text type 2,1,2,1", 0,
         "depth=0 marginal=1 core=1,2 pivot=1 sigma=even value=4\n",
         ""),
    Case("--format json type 2,1,2,1", 0,
         ('{"core": [1, 2], "depth": 0, "marginal": 1, "outer": [], "pivot": 1, "si'
          'gma": "even", "value": 4}\n'),
         ""),
    Case("--format text type --marginal 1 --core 1,2 --pivot 2 --outer 1", 0,
         "1,1,1,2,2,1\n",
         ""),
    Case("--format json type --marginal 1 --core 1,2 --pivot 2 --outer 1", 0,
         '{"quotients": [1, 1, 1, 2, 2, 1]}\n',
         ""),
    Case("--format text type --marginal 1 --core 1,2 --sigma odd", 0,
         "2\n",
         ""),
    Case("--format json type --marginal 1 --core 1,2 --sigma odd", 0,
         '{"value": 2}\n',
         ""),
    Case("--format text type --marginal 1 --core=", 0,
         "1\n",
         ""),
    Case("--format text type 3,1,1,3", 0,
         "depth=2 marginal=0 core= pivot=None sigma=even value=0\n",
         ""),
    Case("--format json type 3,1,1,3", 0,
         ('{"core": [], "depth": 2, "marginal": 0, "outer": [3, 1], "pivot": null, '
          '"sigma": "even", "value": 0}\n'),
         ""),
    Case("--format text enumerate --n 2", 0,
         ("2 ;  ; even\n"
          "2 ;  ; odd\n"
          "1 ; 2 ; even\n"
          "1 ; 2 ; odd\n"
          "2 ; 1 ; even\n"
          "2 ; 1 ; odd\n"
          "1 ; p,1 ; even\n"
          "1 ; 1,p ; odd\n"),
         ""),
    Case("--format json enumerate --n 2", 0,
         ('{"target": 2, "types": [{"core": [], "marginal": 2, "sigma": "even"}, {"'
          'core": [], "marginal": 2, "sigma": "odd"}, {"core": [2], "marginal": 1, '
          '"sigma": "even"}, {"core": [2], "marginal": 1, "sigma": "odd"}, {"core":'
          ' [1], "marginal": 2, "sigma": "even"}, {"core": [1], "marginal": 2, "sig'
          'ma": "odd"}, {"core": "p,1", "marginal": 1, "sigma": "even"}, {"core": "'
          '1,p", "marginal": 1, "sigma": "odd"}]}\n'),
         ""),
    Case("--format csv enumerate --n 2", 0,
         ("marginal,core,sigma\n"
          "2,,even\n"
          "2,,odd\n"
          "1,2,even\n"
          "1,2,odd\n"
          "2,1,even\n"
          "2,1,odd\n"
          "1,p.1,even\n"
          "1,1.p,odd\n"),
         ""),
    Case("--format text enumerate --n 4 --parity even --coarse", 0,
         ("4 ; \n"
          "1 ; 1,2\n"
          "2 ; 1,1\n"),
         ""),
    Case("--format json enumerate --n 4 --parity even --coarse", 0,
         ('{"coarse": [{"core": [], "marginal": 4}, {"core": [1, 2], "marginal": 1}'
          ', {"core": [1, 1], "marginal": 2}], "target": 4}\n'),
         ""),
    Case("--format csv enumerate --n 4 --parity even --coarse", 0,
         ("marginal,core\n"
          "4,\n"
          "1,1.2\n"
          "2,1.1\n"),
         ""),
    Case("--format text solve --n 4 --s 0 --alpha 11", 0,
         "3,4\n",
         ""),
    Case("--format json solve --n 4 --s 0 --alpha 11", 0,
         '{"alpha": 11, "roots": [3, 4]}\n',
         ""),
    Case("--format csv solve --n 4 --s 0 --alpha 11", 0,
         ("root\n"
          "3\n"
          "4\n"),
         ""),
    Case("--format text exceptional --n 3 --s 1", 0,
         "1,2,3,4,5,6,9,12,13\n",
         ""),
    Case("--format json exceptional --n 3 --s 1", 0,
         '{"moduli": [1, 2, 3, 4, 5, 6, 9, 12, 13]}\n',
         ""),
    Case("--format csv exceptional --n 3 --s 1", 0,
         ("modulus\n"
          "1\n"
          "2\n"
          "3\n"
          "4\n"
          "5\n"
          "6\n"
          "9\n"
          "12\n"
          "13\n"),
         ""),
    Case("--format text exceptional --n 3 --s 1 --pairs", 0,
         "(3,1) (3,2) (9,2) (9,4) (9,5) (9,7) (13,5) (13,8)\n",
         ""),
    Case("--format json exceptional --n 3 --s 1 --pairs", 0,
         ('{"pairs": [[3, 1], [3, 2], [9, 2], [9, 4], [9, 5], [9, 7], [13, 5], [13,'
          " 8]]}\n"),
         ""),
    Case("--format csv exceptional --n 3 --s 1 --pairs", 0,
         ("alpha,beta\n"
          "3,1\n"
          "3,2\n"
          "9,2\n"
          "9,4\n"
          "9,5\n"
          "9,7\n"
          "13,5\n"
          "13,8\n"),
         ""),
    Case("--format text exceptional --n 4 --s 0 --true-exceptions", 0,
         "(2,1) (3,1) (3,2)\n",
         ""),
    Case("--format json exceptional --n 4 --s 0 --true-exceptions", 0,
         '{"pairs": [[2, 1], [3, 1], [3, 2]]}\n',
         ""),
    Case("--format csv exceptional --n 4 --s 0 --true-exceptions", 0,
         ("alpha,beta\n"
          "2,1\n"
          "3,1\n"
          "3,2\n"),
         ""),
    Case("--format text exceptional --n 3 --s 1 --certificates", 0,
         ("1: small_alpha; gamma_condition(1); gamma_condition(2); eta_condition(1)"
          "; eta_condition(2); eta_condition(3); eta_condition(4); eta_condition(5)"
          "\n"
          "2: small_alpha; eta_condition(2); eta_condition(4)\n"
          "3: small_alpha; gamma_condition(1); gamma_condition(2); eta_condition(1)"
          "; eta_condition(2); eta_condition(4); eta_condition(5)\n"
          "4: small_alpha; eta_condition(2); eta_condition(4)\n"
          "5: small_alpha\n"
          "6: small_alpha; eta_condition(2); eta_condition(4)\n"
          "9: eta_condition(1); eta_condition(5)\n"
          "12: eta_condition(2); eta_condition(4)\n"
          "13: eta_condition(3)\n"),
         ""),
    Case("--format json exceptional --n 3 --s 1 --certificates", 0,
         ('{"1": [{"condition": "small_alpha", "witness": null}, {"condition": "gam'
          'ma_condition", "witness": 1}, {"condition": "gamma_condition", "witness"'
          ': 2}, {"condition": "eta_condition", "witness": 1}, {"condition": "eta_c'
          'ondition", "witness": 2}, {"condition": "eta_condition", "witness": 3}, '
          '{"condition": "eta_condition", "witness": 4}, {"condition": "eta_conditi'
          'on", "witness": 5}], "12": [{"condition": "eta_condition", "witness": 2}'
          ', {"condition": "eta_condition", "witness": 4}], "13": [{"condition": "e'
          'ta_condition", "witness": 3}], "2": [{"condition": "small_alpha", "witne'
          'ss": null}, {"condition": "eta_condition", "witness": 2}, {"condition": '
          '"eta_condition", "witness": 4}], "3": [{"condition": "small_alpha", "wit'
          'ness": null}, {"condition": "gamma_condition", "witness": 1}, {"conditio'
          'n": "gamma_condition", "witness": 2}, {"condition": "eta_condition", "wi'
          'tness": 1}, {"condition": "eta_condition", "witness": 2}, {"condition": '
          '"eta_condition", "witness": 4}, {"condition": "eta_condition", "witness"'
          ': 5}], "4": [{"condition": "small_alpha", "witness": null}, {"condition"'
          ': "eta_condition", "witness": 2}, {"condition": "eta_condition", "witnes'
          's": 4}], "5": [{"condition": "small_alpha", "witness": null}], "6": [{"c'
          'ondition": "small_alpha", "witness": null}, {"condition": "eta_condition'
          '", "witness": 2}, {"condition": "eta_condition", "witness": 4}], "9": [{'
          '"condition": "eta_condition", "witness": 1}, {"condition": "eta_conditio'
          'n", "witness": 5}]}\n'),
         ""),
    Case("--format text folded --b 1 --n 6 --a 4 --normalize-only", 0,
         "b=4 n=3 a=2 eps=+1\n",
         ""),
    Case("--format json folded --b 1 --n 6 --a 4 --normalize-only", 0,
         '{"a": 2, "b": 4, "epsilon": 1, "n": 3}\n',
         ""),
    Case("--format text folded --b 2 --n 2 --a 1", 0,
         "2,1,1,1 form=2 x=1 pivot=1\n",
         ""),
    Case("--format json folded --b 2 --n 2 --a 1", 0,
         ('{"alpha": 8, "beta": 3, "form": 2, "pivot": 1, "quotients": [2, 1, 1, 1]'
          ', "x": 1}\n'),
         ""),
    Case("--format text verify identities --alpha-max 12 --trials 5 --seed 1", 0,
         "checked=50 matches=50 violations=0\n",
         ""),
    Case("--format json verify identities --alpha-max 12 --trials 5 --seed 1", 0,
         ('{"alpha_max": 12, "alpha_min": 2, "checked": 50, "kind": "identities", "'
          'matches": 50, "ok": true, "seed": 1, "trials": 5, "violations": []}\n'),
         ""),
    Case("--format csv verify identities --alpha-max 12 --trials 5 --seed 1", 0,
         "kind,alpha,beta,expansion\n",
         ""),
    Case("--format text verify main --n 4 --s 0 --alpha-max 30 --mode coarse", 0,
         ("checked=8 matches=8 violations=0\n"
          "  coarse root_without_listed_type: alpha=26 beta=15 type=(1;2,1)\n"
          "  coarse listed_type_without_root: alpha=27 beta=17 type=(1;1,2)\n"),
         ""),
    Case("--format json verify main --n 4 --s 0 --alpha-max 30 --mode coarse", 0,
         ('{"alpha_max": 30, "alpha_min": 2, "checked": 8, "coarse_counterexamples"'
          ': [{"alpha": 26, "beta": 15, "core": [2, 1], "direction": "root_without_'
          'listed_type", "marginal": 1}, {"alpha": 27, "beta": 17, "core": [1, 2], '
          '"direction": "listed_type_without_root", "marginal": 1}], "excluded": [{'
          '"certificates": [{"condition": "small_alpha", "witness": null}, {"condit'
          'ion": "gamma_condition", "witness": 1}, {"condition": "gamma_condition",'
          ' "witness": 2}, {"condition": "gamma_condition", "witness": 3}, {"condit'
          'ion": "eta_condition", "witness": 1}, {"condition": "eta_condition", "wi'
          'tness": 2}, {"condition": "eta_condition", "witness": 3}, {"condition": '
          '"eta_condition", "witness": 4}, {"condition": "eta_condition", "witness"'
          ': 5}, {"condition": "eta_condition", "witness": 6}, {"condition": "eta_c'
          'ondition", "witness": 7}], "modulus": 1}, {"certificates": [{"condition"'
          ': "small_alpha", "witness": null}, {"condition": "gamma_condition", "wit'
          'ness": 1}, {"condition": "gamma_condition", "witness": 3}, {"condition":'
          ' "eta_condition", "witness": 2}, {"condition": "eta_condition", "witness'
          '": 4}, {"condition": "eta_condition", "witness": 6}], "modulus": 2}, {"c'
          'ertificates": [{"condition": "small_alpha", "witness": null}, {"conditio'
          'n": "gamma_condition", "witness": 2}, {"condition": "eta_condition", "wi'
          'tness": 1}, {"condition": "eta_condition", "witness": 4}, {"condition": '
          '"eta_condition", "witness": 7}], "modulus": 3}, {"certificates": [{"cond'
          'ition": "small_alpha", "witness": null}, {"condition": "eta_condition", '
          '"witness": 2}, {"condition": "eta_condition", "witness": 4}, {"condition'
          '": "eta_condition", "witness": 6}], "modulus": 4}, {"certificates": [{"c'
          'ondition": "small_alpha", "witness": null}], "modulus": 5}, {"certificat'
          'es": [{"condition": "small_alpha", "witness": null}, {"condition": "eta_'
          'condition", "witness": 4}], "modulus": 6}, {"certificates": [{"condition'
          '": "small_alpha", "witness": null}], "modulus": 7}, {"certificates": [{"'
          'condition": "small_alpha", "witness": null}, {"condition": "eta_conditio'
          'n", "witness": 2}, {"condition": "eta_condition", "witness": 6}], "modul'
          'us": 8}, {"certificates": [{"condition": "eta_condition", "witness": 3},'
          ' {"condition": "eta_condition", "witness": 5}], "modulus": 11}, {"certif'
          'icates": [{"condition": "eta_condition", "witness": 4}], "modulus": 12}]'
          ', "kind": "main_theorem", "matches": 8, "mode": "coarse", "n": 4, "neces'
          'sary_exclusions": [2, 3, 6, 11], "ok": true, "s": 0, "violations": []}\n'),
         ""),
    Case("--format csv verify main --n 4 --s 0 --alpha-max 30 --mode coarse", 0,
         "kind,alpha,beta,expansion\n",
         ""),
    Case("--format text verify enumeration --max-len 4 --max-entry 3 --value-bound 2", 0,
         "hits=46 types=20 violations=0\n",
         ""),
    Case("--format json verify enumeration --max-len 4 --max-entry 3 --value-bound 2", 0,
         '{"hits": 46, "ok": true, "types": 20, "violations": []}\n',
         ""),
    Case("--format csv verify enumeration --max-len 4 --max-entry 3 --value-bound 2", 0,
         "kind,alpha,beta,expansion\n",
         ""),
    Case("--format text table --n-max 2", 0,
         ("(1, even)  exceptions: none\n"
          "    1 ; \n"
          "(1, odd)  exceptions: none\n"
          "    1 ; 1\n"
          "(2, even)  exceptions: none\n"
          "    2 ; \n"
          "    1 ; p,1\n"
          "(2, odd)  exceptions: (2,1)\n"
          "    1 ; 2\n"
          "    2 ; 1\n"),
         ""),
    Case("--format json table --n-max 2", 0,
         ('{"n_max": 2, "rows": [{"entries": [{"core": "", "marginal": 1}], "except'
          'ions": [], "parity": "even", "value": 1}, {"entries": [{"core": "1", "ma'
          'rginal": 1}], "exceptions": [], "parity": "odd", "value": 1}, {"entries"'
          ': [{"core": "", "marginal": 2}, {"core": "p,1", "marginal": 1}], "except'
          'ions": [], "parity": "even", "value": 2}, {"entries": [{"core": "2", "ma'
          'rginal": 1}, {"core": "1", "marginal": 2}], "exceptions": [[2, 1]], "par'
          'ity": "odd", "value": 2}]}\n'),
         ""),
    Case("--format csv table --n-max 2", 0,
         ("value,parity,marginal,core,exceptions\n"
          "1,even,1,,\n"
          "1,odd,1,1,\n"
          "2,even,2,,\n"
          "2,even,1,p.1,\n"
          "2,odd,1,2,2:1\n"
          "2,odd,2,1,\n"),
         ""),
    Case("expand 10 4", 2,
         "",
         "cfasym: domain error: pair (10, 4) is not coprime\n"),
    Case("--format csv anticont 3,1,1,3", 1,
         "",
         "cfasym: error: csv output is not available for this subcommand\n"),
    Case("solve --n 4 --s 0 --alpha 100000000000001", 2,
         "",
         "cfasym: domain error: alpha must be at most 10**14, got 100000000000001\n"),
    Case("solve --n 2 --s 0 --alpha 4000000000000", 2,
         "",
         "cfasym: domain error: alpha = 4000000000000 gives 2000000 roots; "
         "at most 1000000 are listed\n"),
    Case("solve --n 22876792454963 --s 0 --alpha 68630377364883", 2,
         "",
         "cfasym: domain error: alpha = 68630377364883 gives 9565938 roots; "
         "at most 1000000 are listed\n"),
    Case("expand 1 1 --parity even", 2,
         "",
         "cfasym: domain error: 1/1 has only the odd-length representation [1]\n"),
    Case("continuant", 2,
         "",
         "cfasym: domain error: continuant needs a SEQUENCE or --fib\n"),
    Case("continuant 1,2,3 --euler 1,2", 2,
         "",
         "cfasym: domain error: --euler needs four indices K,L,M,N, got '1,2'\n"),
    Case("continuant 1,2,3 --euler a,b,c,d", 2,
         "",
         "cfasym: domain error: expected comma-separated integers, got 'a,b,c,d'\n"),
    Case("verify identities --alpha-max 5 --trials -3", 2,
         "",
         "cfasym: domain error: trials must be a non-negative integer, got -3\n"),
    Case("verify main --n 129 --s 1", 2,
         "",
         "cfasym: domain error: target must be at most 128 in absolute value, got 129\n"),
    Case("verify main --n 1000000 --s 1", 2,
         "",
         "cfasym: domain error: target must be at most 128 in absolute value, got 1000000\n"),
    Case("verify main --n 0 --s 1", 2,
         "",
         ("cfasym: domain error: exceptional_candidates needs n != 0 (value 0 is the symmetr"
          "ic class)\n")),
    Case("exceptional --n 1000000 --s 1", 2,
         "",
         "cfasym: domain error: exceptional_candidates needs |n| <= 1000, got 1000000\n"),
    Case("exceptional --n 1001 --s 1 --pairs", 2,
         "",
         "cfasym: domain error: exceptional_candidates needs |n| <= 1000, got 1001\n"),
    Case("exceptional --n 1001 --s 1 --true-exceptions", 2,
         "",
         "cfasym: domain error: exceptional_candidates needs |n| <= 1000, got 1001\n"),
    Case("verify enumeration --max-len 0", 2,
         "",
         "cfasym: domain error: bounds must be positive\n"),
    Case("verify enumeration --max-len 6 --max-entry 4 --value-bound 129", 2,
         "",
         "cfasym: domain error: value_bound must be at most 128, got 129\n"),
    Case("type --marginal 1 --outer 1", 2,
         "",
         "cfasym: domain error: --outer needs --pivot\n"),
    Case("type --marginal 1 --core 1 --pivot 2 --sigma odd", 2,
         "",
         ("cfasym: domain error: --sigma does not apply with --pivot: the length of --"
          "outer fixes it\n")),
    Case("type --marginal 0 --core 1 --pivot 2", 2,
         "",
         "cfasym: domain error: symmetric decomposition must not carry a pivot\n"),
    Case("folded --b 1 --n 1 --a 1", 2,
         "",
         "cfasym: domain error: denominator 0 outside (0, 1)\n"),
    Case("folded --b 1 --n 3 --a 5", 2,
         "",
         "cfasym: domain error: denominator 14 outside (0, 9)\n"),
    Case("type --marginal 1 --outer=", 2,
         "",
         "cfasym: domain error: --outer needs --pivot\n"),
    Case("type 2,1,2,1 --core=", 2,
         "",
         "cfasym: domain error: --core needs --marginal\n"),
    Case("type --core 1", 2,
         "",
         "cfasym: domain error: --core needs --marginal\n"),
    Case("type", 2,
         "",
         ("cfasym: domain error: type needs a SEQUENCE, or --marginal/--core/--sigma, "
          "or --marginal/--core/--pivot/--outer\n")),
    Case("expand 5 2 --from-quotients 3,1,2", 2,
         "",
         "cfasym: domain error: a pair ALPHA BETA does not apply with --from-quotients\n"),
    Case("expand --from-quotients 3,1 --parity odd", 2,
         "",
         "cfasym: domain error: --parity does not apply with --from-quotients\n"),
    Case("expand --from-quotients 3,1 --parity conv", 2,
         "",
         "cfasym: domain error: --parity does not apply with --from-quotients\n"),
    Case("expand 7 3 --predict-parity --parity even", 2,
         "",
         "cfasym: domain error: --parity does not apply with --predict-parity\n"),
    Case("expand 7 3 --predict-parity --parity conv", 2,
         "",
         "cfasym: domain error: --parity does not apply with --predict-parity\n"),
    Case("expand --from-quotients 3,1 --predict-parity", 2,
         "",
         "cfasym: domain error: --predict-parity does not apply with --from-quotients\n"),
    Case("continuant --fib 200001", 2,
         "",
         "cfasym: domain error: fibonacci index must be at most 200000, got 200001\n"),
    Case("continuant 1,2,3 --fib 5", 2,
         "",
         "cfasym: domain error: a SEQUENCE does not apply with --fib\n"),
    Case("continuant 1,2,3 --euler 0,1,1,2 --i 1 --j 1", 2,
         "",
         "cfasym: domain error: --i does not apply with --euler\n"),
    Case("continuant 1,2,3 --euler 0,1,1,2 --i 0", 2,
         "",
         "cfasym: domain error: --i does not apply with --euler\n"),
    Case("continuant --fib 5 --euler 0,1,1,2", 2,
         "",
         "cfasym: domain error: --euler does not apply with --fib\n"),
    Case("continuant --fib 5 --j 1", 2,
         "",
         "cfasym: domain error: --j does not apply with --fib\n"),
    Case("continuant --fib 5 --i 0", 2,
         "",
         "cfasym: domain error: --i does not apply with --fib\n"),
    Case("continuant 1,2,3 --euler 0,1,1,2 --j 2", 2,
         "",
         "cfasym: domain error: --j does not apply with --euler\n"),
    Case("exceptional --n 3 --s 1 --pairs --certificates", 2,
         "",
         "cfasym: domain error: --certificates does not apply with --pairs\n"),
    Case("exceptional --n 3 --s 1 --pairs --true-exceptions", 2,
         "",
         "cfasym: domain error: --true-exceptions does not apply with --pairs\n"),
    Case("exceptional --n 3 --s 1 --single-sign", 2,
         "",
         "cfasym: domain error: --single-sign needs --pairs or --true-exceptions\n"),
    Case("exceptional --n 3 --s 1 --true-exceptions --certificates", 2,
         "",
         "cfasym: domain error: --certificates does not apply with --true-exceptions\n"),
    Case("exceptional --n 3 --s 1 --certificates --single-sign", 2,
         "",
         "cfasym: domain error: --single-sign needs --pairs or --true-exceptions\n"),
    Case("enumerate --n 1000", 2,
         "",
         "cfasym: domain error: target must be at most 128 in absolute value, got 1000\n"),
    Case("table --n-max 129", 2,
         "",
         "cfasym: domain error: n_max must be at most 128, got 129\n"),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[c.argv for c in GOLDEN])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.delenv("CFASYM_FORMAT", raising=False)
    code = cli.main(case.argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case.code, case.out, case.err)

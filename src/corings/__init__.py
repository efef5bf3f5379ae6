"""Exact computational algebra for corings over finite-dimensional algebras.

Everything is computed over the rationals or a prime field with exact
arithmetic, and every construction is paired with a checker that verifies its
defining axioms as exact matrix identities.  The package binds no names: its
API is its modules, listed here in import order.  A module imports only
modules listed before it, so importing one loads only those it needs
(`linalg` loads `errors` alone).

- `errors`: the exception hierarchy; each error carries the report it ends.
- `verdict`: pass/fail results of the law checkers, with their witnesses.
- `linalg`: scalar fields, sparse matrices and quotient presentations.
- `algebras`: finite-dimensional algebras by structure constants.
- `bimodules`: bimodules, tensor products over an algebra as quotients.
- `coring`: corings, their laws, and the lift-row helpers the coaction laws share.
- `constructions`: the tensor coring and the standard small corings.
- `category`: the extension and corings categories and their monoidal laws.
- `workspace`: JSON workspaces: parse, validate on load, dump.
- `cli`: the command line, run by `python -m corings` and `corings`.
"""

"""`python -m cartwheel_discharge`: the command-line front end."""

from .cli import entry

entry()

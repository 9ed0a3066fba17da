"""Numerical toolkit for one-sided fractional Sobolev spaces on an interval.

Submodules:

* ``core`` — grids, sampled functions, shared numerics
* ``oracle`` — closed-form test functions with exact transforms
* ``operators`` — fractional derivative and integral schemes
* ``spaces`` — norms, seminorms, traces, regularity tests
* ``verify`` — executable checks for the constructive theorems
* ``cli`` — command-line front end

Importing the package loads no submodule.  ``cli`` imports the library
modules a command runs when that command runs: ``compute`` loads ``core``,
``oracle`` and ``operators``; ``norm`` also loads ``spaces``; ``verify``
and ``suite`` load all five.  ``frac --version``, ``--help`` and usage
errors that need no library check load no numpy.
"""

__version__ = "0.1.0"

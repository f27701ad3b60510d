"""Count pattern-avoiding involutions and compare with closed forms.

Run: python3 demos/01_counting_and_closed_forms.py
"""
from invpat import (
    closed_form_123,
    closed_form_12345,
    count_avoiders,
    motzkin,
)

print("involutions of [n] avoiding 123 (central binomial coefficients):")
for n in range(1, 9):
    brute = count_avoiders(n, ["123"])
    print(f"  n={n}: {brute}  (closed form {closed_form_123(n)})")

print("\navoiding 1234 (Motzkin numbers):")
print(" ", [count_avoiders(n, ["1234"]) for n in range(1, 10)])
print(" ", [motzkin(n) for n in range(1, 10)])

print("\navoiding 12345 (products of Catalan numbers):")
print(" ", [count_avoiders(n, ["12345"]) for n in range(1, 10)])
print(" ", [closed_form_12345(n) for n in range(1, 10)])

print("\nmultiple patterns at once: avoiding both 123 and 321")
print(" ", [count_avoiders(n, ["123", "321"]) for n in range(1, 8)])

// Minimal command-line flag parsing for examples and bench binaries.
//
// All binaries run fine with zero arguments (defaults reproduce the paper's
// configurations); flags let a user override sweep parameters:
//   ./fig9_scaling_n --max-subs=200000 --seed=7 --csv
// Syntax: --name=value or bare --name (boolean true). A malformed argument
// or value, or a flag no accessor asked about, is a usage error: finish()
// prints it with the accepted flags and exits with status 2, so typos are
// caught instead of silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace subcover {

class cli_flags {
 public:
  // Parses argv. A malformed argument is reported by finish(), once the
  // accessors have named every accepted flag.
  cli_flags(int argc, const char* const* argv);

  // Typed accessors; each registers the flag as accepted and returns the
  // parsed value, or the default if the flag is absent or its value is
  // malformed (which finish() then reports).
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def);
  std::string get_string(const std::string& name, const std::string& def);

  // Call after all accessors. On any usage error (above), prints the errors
  // and the accepted flags with their defaults to stderr and exits with
  // status 2.
  void finish() const;

 private:
  // The flag's raw value if given; registers it as accepted with `def`.
  const std::string* lookup(const std::string& name, const std::string& def);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> accepted_;  // name -> default, as text
  std::vector<std::string> errors_;
};

}  // namespace subcover

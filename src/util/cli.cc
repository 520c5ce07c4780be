#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace subcover {

cli_flags::cli_flags(int argc, const char* const* argv)
    : program_(argc > 0 ? argv[0] : "program") {
  std::string bare;  // the previous argument, if it was a bare --flag
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (bare.empty()) {
        errors_.push_back("expected --name[=value], got '" + arg + "'");
      } else {
        // "--subs 1200": one error naming the intended spelling; the bare
        // flag is not taken as boolean true.
        values_.erase(bare);
        errors_.push_back("expected --" + bare + "=" + arg + ", got '--" + bare + " " + arg + "'");
      }
      bare.clear();
      continue;
    }
    arg = arg.substr(2);
    bare.clear();
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
      bare = arg;
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* cli_flags::lookup(const std::string& name, const std::string& def) {
  accepted_[name] = def;
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::int64_t cli_flags::get_int(const std::string& name, std::int64_t def) {
  const std::string* v = lookup(name, std::to_string(def));
  if (v == nullptr) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t x = std::stoll(*v, &pos);
    if (pos == v->size()) return x;
  } catch (const std::exception&) {
  }
  errors_.push_back("--" + name + " expects an integer, got '" + *v + "'");
  return def;
}

double cli_flags::get_double(const std::string& name, double def) {
  std::ostringstream text;
  text << def;
  const std::string* v = lookup(name, text.str());
  if (v == nullptr) return def;
  try {
    std::size_t pos = 0;
    const double x = std::stod(*v, &pos);
    if (pos == v->size()) return x;
  } catch (const std::exception&) {
  }
  errors_.push_back("--" + name + " expects a number, got '" + *v + "'");
  return def;
}

bool cli_flags::get_bool(const std::string& name, bool def) {
  const std::string* v = lookup(name, def ? "true" : "false");
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  errors_.push_back("--" + name + " expects true/false, got '" + *v + "'");
  return def;
}

std::string cli_flags::get_string(const std::string& name, const std::string& def) {
  const std::string* v = lookup(name, def);
  return v == nullptr ? def : *v;
}

void cli_flags::finish() const {
  std::vector<std::string> errors = errors_;
  for (const auto& [name, value] : values_)
    if (accepted_.count(name) == 0) errors.push_back("unknown flag --" + name);
  if (errors.empty()) return;
  for (const std::string& e : errors) std::cerr << program_ << ": " << e << "\n";
  std::cerr << "accepted flags:";
  for (const auto& [name, def] : accepted_) std::cerr << " --" << name << "=" << def;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace subcover
